(* Integration tests for Prb_core.Scheduler: end-to-end deadlock removal,
   serializability, determinism, liveness of the ordered policies. *)

module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Strategy = Prb_rollback.Strategy
module Policy = Prb_core.Policy
module Scheduler = Prb_core.Scheduler
module History = Prb_history.History
module Txn_state = Prb_rollback.Txn_state
module Generator = Prb_workload.Generator

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* The workload-driving cases below run on a tick budget about ten times
   what they need, so a livelock fails at once on [all committed] instead
   of spinning to the default million ticks. *)
let budget max_ticks = { Scheduler.default_config with max_ticks }

let check_all_committed sched =
  checkb "all committed within the tick budget" true
    (Scheduler.all_committed sched)

let transfer ~name ~src ~dst ~amount =
  Program.make ~name
    ~locals:[ ("sb", Value.int 0); ("db", Value.int 0) ]
    [
      Program.lock_x src;
      Program.read src "sb";
      Program.write src Expr.(var "sb" - int amount);
      Program.lock_x dst;
      Program.read dst "db";
      Program.write dst Expr.(var "db" + int amount);
      Program.unlock src;
      Program.unlock dst;
    ]

let two_txn_deadlock strategy =
  let store = Store.of_list [ ("a", Value.int 100); ("b", Value.int 100) ] in
  let config = { (budget 160) with strategy } in
  let sched = Scheduler.create ~config store in
  let _ = Scheduler.submit sched (transfer ~name:"ab" ~src:"a" ~dst:"b" ~amount:10) in
  let _ = Scheduler.submit sched (transfer ~name:"ba" ~src:"b" ~dst:"a" ~amount:20) in
  Scheduler.run sched;
  check_all_committed sched;
  (store, sched)

let test_deadlock_resolved_all_strategies () =
  List.iter
    (fun strategy ->
      let store, sched = two_txn_deadlock strategy in
      let stats = Scheduler.stats sched in
      checki "both commit" 2 stats.Scheduler.commits;
      checkb "a deadlock happened" true (stats.Scheduler.deadlocks >= 1);
      checkb "serializable" true (History.serializable (Scheduler.history sched));
      (* money conserved *)
      checki "total" 200
        (Value.as_int (Store.get store "a") + Value.as_int (Store.get store "b")))
    (Strategy.all_basic @ [ Strategy.Sdg_k 1 ])

let test_no_conflict_no_deadlock () =
  let store = Store.of_list [ ("a", Value.int 0); ("b", Value.int 0) ] in
  let sched = Scheduler.create ~config:(budget 50) store in
  let p name e =
    Program.make ~name ~locals:[ ("v", Value.int 0) ]
      [ Program.lock_x e; Program.read e "v";
        Program.write e Expr.(var "v" + int 1); Program.unlock e ]
  in
  let _ = Scheduler.submit sched (p "t0" "a") in
  let _ = Scheduler.submit sched (p "t1" "b") in
  Scheduler.run sched;
  check_all_committed sched;
  let stats = Scheduler.stats sched in
  checki "commits" 2 stats.Scheduler.commits;
  checki "no deadlocks" 0 stats.Scheduler.deadlocks;
  checki "no rollbacks" 0 stats.Scheduler.rollbacks

let test_blocking_without_deadlock () =
  (* same entity, same order: pure waiting, FIFO grants *)
  let store = Store.of_list [ ("a", Value.int 0) ] in
  let sched = Scheduler.create ~config:(budget 110) store in
  let p name =
    Program.make ~name ~locals:[ ("v", Value.int 0) ]
      [ Program.lock_x "a"; Program.read "a" "v";
        Program.write "a" Expr.(var "v" + int 1); Program.unlock "a" ]
  in
  let ids = List.map (fun i -> Scheduler.submit sched (p (Printf.sprintf "t%d" i)))
      [ 0; 1; 2 ] in
  ignore ids;
  Scheduler.run sched;
  check_all_committed sched;
  let stats = Scheduler.stats sched in
  checki "commits" 3 stats.Scheduler.commits;
  checki "no deadlocks" 0 stats.Scheduler.deadlocks;
  checkb "blocks happened" true (stats.Scheduler.blocks >= 2);
  checkb "a = 3" true (Value.equal (Store.get store "a") (Value.int 3))

let test_partial_beats_total_on_cost () =
  (* a long transaction that deadlocks on its LAST lock: partial rollback
     loses a couple of ops, total loses everything. *)
  let mk strategy =
    let store =
      Store.of_list
        (List.map (fun e -> (e, Value.int 0)) [ "w1"; "w2"; "w3"; "x"; "y" ])
    in
    let long =
      Program.make ~name:"long" ~locals:[ ("v", Value.int 0) ]
        ([ Program.lock_x "w1"; Program.read "w1" "v";
           Program.lock_x "w2"; Program.read "w2" "v";
           Program.lock_x "w3"; Program.read "w3" "v";
           Program.lock_x "x"; Program.read "x" "v" ]
        @ [ Program.lock_x "y" ])
    in
    let short =
      Program.make ~name:"short" ~locals:[ ("v", Value.int 0) ]
        [ Program.lock_x "y"; Program.read "y" "v"; Program.assign "v" (Expr.int 0);
          Program.assign "v" (Expr.int 1); Program.assign "v" (Expr.int 2);
          Program.assign "v" (Expr.int 3); Program.assign "v" (Expr.int 4);
          Program.assign "v" (Expr.int 5); Program.assign "v" (Expr.int 6);
          Program.lock_x "x" ]
    in
    let config = { (budget 200) with strategy; policy = Policy.Min_cost } in
    let sched = Scheduler.create ~config store in
    let _ = Scheduler.submit sched long in
    let _ = Scheduler.submit sched short in
    Scheduler.run sched;
    check_all_committed sched;
    Scheduler.stats sched
  in
  let total = mk Strategy.Total and mcs = mk Strategy.Mcs in
  checki "both commit (total)" 2 total.Scheduler.commits;
  checki "both commit (mcs)" 2 mcs.Scheduler.commits;
  checkb "partial loses strictly less" true
    (mcs.Scheduler.ops_lost < total.Scheduler.ops_lost)

let test_determinism () =
  let run () =
    let params =
      { Generator.default_params with n_entities = 12; zipf_theta = 0.8 }
    in
    let store = Generator.populate params in
    let programs = Generator.generate params ~seed:5 ~n:40 in
    let sched = Scheduler.create ~config:(budget 9_000) store in
    List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
    Scheduler.run sched;
    check_all_committed sched;
    (Scheduler.stats sched, Store.snapshot store)
  in
  let s1, snap1 = run () and s2, snap2 = run () in
  checkb "identical stats" true (s1 = s2);
  checkb "identical final state" true
    (List.for_all2
       (fun (e1, v1) (e2, v2) -> e1 = e2 && Value.equal v1 v2)
       snap1 snap2)

let test_deadlock_hook_fires () =
  let fired = ref 0 in
  let store = Store.of_list [ ("a", Value.int 0); ("b", Value.int 0) ] in
  let sched = Scheduler.create ~config:(budget 160) store in
  Scheduler.set_deadlock_hook sched (fun ~requester:_ ~cycles ~decision ->
      incr fired;
      checkb "at least one cycle" true (cycles <> []);
      checkb "at least one victim" true (decision.Prb_core.Resolver.victims <> []));
  let _ = Scheduler.submit sched (transfer ~name:"ab" ~src:"a" ~dst:"b" ~amount:1) in
  let _ = Scheduler.submit sched (transfer ~name:"ba" ~src:"b" ~dst:"a" ~amount:1) in
  Scheduler.run sched;
  check_all_committed sched;
  checkb "hook fired" true (!fired >= 1)

let test_exclusive_only_single_cycle () =
  (* Theorem 1: with exclusive locks only, a wait response creates at most
     one cycle — every resolution must see exactly one. *)
  let params =
    {
      Generator.default_params with
      n_entities = 10;
      zipf_theta = 0.9;
      read_fraction = 0.0;
      max_locks = 5;
    }
  in
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed:11 ~n:60 in
  (* availability-rule locking: waits point at holders only, which is the
     paper's model and the premise of Theorem 1 (under fair queueing a
     waiter also waits for queued-ahead requests, adding edges). *)
  let config = { (budget 55_000) with fair_locking = false } in
  let sched = Scheduler.create ~config store in
  Scheduler.set_deadlock_hook sched (fun ~requester:_ ~cycles ~decision:_ ->
      checki "exactly one cycle (Theorem 1)" 1 (List.length cycles));
  List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
  Scheduler.run sched;
  check_all_committed sched

let test_shared_multi_cycles_happen () =
  (* With shared locks, some resolution should see several cycles at once
     (Section 3.2) — checked over a contended read-heavy workload. *)
  let params =
    {
      Generator.default_params with
      n_entities = 8;
      zipf_theta = 1.0;
      read_fraction = 0.5;
      max_locks = 6;
    }
  in
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed:3 ~n:80 in
  let sched = Scheduler.create ~config:(budget 25_000) store in
  let multi = ref false in
  Scheduler.set_deadlock_hook sched (fun ~requester:_ ~cycles ~decision:_ ->
      if List.length cycles > 1 then multi := true);
  List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
  Scheduler.run sched;
  check_all_committed sched;
  checkb "multi-cycle deadlock observed" true !multi

let test_store_untouched_by_rollbacks () =
  (* rollbacks must never write the store: install count = X-locked
     entities of committed transactions only *)
  let store = Store.of_list [ ("a", Value.int 0); ("b", Value.int 0) ] in
  let sched = Scheduler.create ~config:(budget 160) store in
  let _ = Scheduler.submit sched (transfer ~name:"ab" ~src:"a" ~dst:"b" ~amount:1) in
  let _ = Scheduler.submit sched (transfer ~name:"ba" ~src:"b" ~dst:"a" ~amount:1) in
  Scheduler.run sched;
  check_all_committed sched;
  checki "2 txns x 2 installs" 4 (Store.install_count store)

let test_liveness_under_contention () =
  (* the ordered and youngest policies finish a hot workload for several
     seeds and strategies; serializability holds every time *)
  List.iter
    (fun seed ->
      List.iter
        (fun policy ->
          List.iter
            (fun strategy ->
              let params =
                {
                  Generator.default_params with
                  n_entities = 10;
                  zipf_theta = 0.9;
                  max_locks = 6;
                }
              in
              let store = Generator.populate params in
              let programs = Generator.generate params ~seed ~n:50 in
              let config =
                {
                  Scheduler.default_config with
                  strategy;
                  policy;
                  seed;
                  max_ticks = 200_000;
                }
              in
              let sched = Scheduler.create ~config store in
              List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
              Scheduler.run sched;
              checkb "all committed" true (Scheduler.all_committed sched);
              checkb "serializable" true
                (History.serializable (Scheduler.history sched)))
            [ Strategy.Total; Strategy.Mcs; Strategy.Sdg ])
        [ Policy.Ordered_min_cost; Policy.Youngest ])
    [ 1; 2; 3; 4 ]

let test_growing_victims_only () =
  (* no transaction is ever rolled back after it unlocked something:
     watch phases of victims through the hook *)
  let params =
    { Generator.default_params with n_entities = 8; zipf_theta = 1.0 }
  in
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed:8 ~n:60 in
  let sched = Scheduler.create ~config:(budget 30_000) store in
  Scheduler.set_deadlock_hook sched (fun ~requester:_ ~cycles:_ ~decision ->
      List.iter
        (fun (v, _) ->
          checkb "victim still growing" true
            (Txn_state.phase (Scheduler.txn_state sched v) = Txn_state.Growing))
        decision.Prb_core.Resolver.victims);
  List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
  Scheduler.run sched;
  check_all_committed sched

let test_timeout_intervention () =
  (* classic two-txn deadlock with no detection: only the timer saves it *)
  let store = Store.of_list [ ("a", Value.int 0); ("b", Value.int 0) ] in
  let config =
    { Scheduler.default_config with intervention = Scheduler.Timeout_abort 20 }
  in
  let sched = Scheduler.create ~config store in
  let _ = Scheduler.submit sched (transfer ~name:"ab" ~src:"a" ~dst:"b" ~amount:1) in
  let _ = Scheduler.submit sched (transfer ~name:"ba" ~src:"b" ~dst:"a" ~amount:2) in
  Scheduler.run sched;
  let s = Scheduler.stats sched in
  checki "both commit" 2 s.Scheduler.commits;
  checki "no detection ran" 0 s.Scheduler.deadlocks;
  checkb "a timeout fired" true (s.Scheduler.timeouts >= 1);
  checkb "stall lasted at least the timer" true (s.Scheduler.ticks >= 20);
  (* the aborted transaction's blocking episode must show up in the
     duration stats (it used to be dropped on the self-restart path) *)
  checkb "abort episode measured" true (s.Scheduler.max_blocked_ticks >= 20);
  checkb "durations accumulate" true
    (s.Scheduler.total_blocked_ticks >= s.Scheduler.max_blocked_ticks);
  checki "blocked table drained" 0 (Scheduler.n_blocked_tracked sched);
  checkb "serializable" true (History.serializable (Scheduler.history sched))

let test_prevention_interventions () =
  List.iter
    (fun intervention ->
      let params =
        { Generator.default_params with n_entities = 12; zipf_theta = 0.9 }
      in
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed:6 ~n:40 in
      let config = { Scheduler.default_config with intervention; seed = 6 } in
      let sched = Scheduler.create ~config store in
      List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
      Scheduler.run sched;
      let s = Scheduler.stats sched in
      checkb "all commit" true (Scheduler.all_committed sched);
      checki "prevention never detects" 0 s.Scheduler.deadlocks;
      checkb "preemptions happened" true (s.Scheduler.preventions > 0);
      checkb "serializable" true (History.serializable (Scheduler.history sched)))
    [ Scheduler.Wound_wait_c; Scheduler.Wait_die_c ]

let test_wound_wait_spares_elders () =
  (* under wound-wait the oldest transaction is never rolled back *)
  let params =
    { Generator.default_params with n_entities = 10; zipf_theta = 0.9 }
  in
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed:2 ~n:30 in
  let config =
    { Scheduler.default_config with intervention = Scheduler.Wound_wait_c; seed = 2 }
  in
  let sched = Scheduler.create ~config store in
  let ids = List.map (fun p -> Scheduler.submit sched p) programs in
  Scheduler.run sched;
  let oldest = List.hd ids in
  checki "oldest never rolled back" 0
    (Txn_state.n_rollbacks (Scheduler.txn_state sched oldest))

let test_dirty_set_fixpoint_contended () =
  (* Regression for the resolution fixpoint seeded at the changed
     waiters: a hot workload that
     forces many multi-round resolutions (rollback regrants re-blocking
     transactions mid-fixpoint) must still clear every deadlock, and the
     optional detection clock must observe the work without perturbing
     it. *)
  let params =
    {
      Generator.default_params with
      n_entities = 10;
      zipf_theta = 0.95;
      min_locks = 3;
      max_locks = 6;
    }
  in
  let run clock =
    let store = Generator.populate params in
    let programs = Generator.generate params ~seed:13 ~n:40 in
    let config = { (budget 14_000) with seed = 13; clock } in
    let sched = Scheduler.create ~config store in
    List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
    Scheduler.run sched;
    sched
  in
  let sched = run None in
  let s = Scheduler.stats sched in
  check_all_committed sched;
  checkb "deadlocks actually happened" true (s.Scheduler.deadlocks > 0);
  checkb "serializable" true (History.serializable (Scheduler.history sched));
  checkb "every lock request was checked" true
    (Scheduler.check_calls sched > 0);
  (* a round max flow decides enumerates nothing (DESIGN.md §16) *)
  checkb "every deadlock enumerated its cycles or was decided by flow" true
    (Scheduler.enumerate_calls sched + s.Scheduler.flow_decided
     >= s.Scheduler.deadlocks);
  checkb "no clock, no seconds" true
    (Scheduler.check_seconds sched = 0.
    && Scheduler.enumerate_seconds sched = 0.);
  (* deterministic fake clock: each reading advances by 1ms *)
  let ticks = ref 0. in
  let fake () = ticks := !ticks +. 0.001; !ticks in
  let timed = run (Some fake) in
  let t = Scheduler.stats timed in
  checki "clock does not change scheduling: commits" s.Scheduler.commits
    t.Scheduler.commits;
  checki "clock does not change scheduling: deadlocks" s.Scheduler.deadlocks
    t.Scheduler.deadlocks;
  checki "clock does not change scheduling: ticks" s.Scheduler.ticks
    t.Scheduler.ticks;
  checkb "instrumented time accumulated" true
    (Scheduler.check_seconds timed > 0.
    && Scheduler.enumerate_seconds timed > 0.)

let test_blocked_since_no_leak () =
  (* blocked_since entries must be dropped on commit, not only on abort,
     so the timeout bookkeeping cannot accumulate across a run *)
  List.iter
    (fun intervention ->
      let params =
        { Generator.default_params with n_entities = 8; zipf_theta = 0.9 }
      in
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed:3 ~n:30 in
      let config = { (budget 21_000) with intervention; seed = 3 } in
      let sched = Scheduler.create ~config store in
      List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
      Scheduler.run sched;
      check_all_committed sched;
      checki "blocked-since table drained" 0 (Scheduler.n_blocked_tracked sched))
    [ Scheduler.Detect; Scheduler.Timeout_abort 25 ]

(* Commit retires a transaction: its state becomes garbage, and the
   scheduler answers for the id from what it kept. Every live state is
   observed through a weak pointer after every step, with the counters it
   reports; none of them changes in the commit step itself. *)
type counters = { executed : int; rollbacks : int; peak : int; monitored : int }

let counters_of ts =
  {
    executed = Txn_state.total_executed ts;
    rollbacks = Txn_state.n_rollbacks ts;
    peak = Txn_state.peak_copies ts;
    monitored = Txn_state.monitored_writes ts;
  }

(* Records the live states of [ids] without keeping them reachable. *)
let observe_live sched weak last ids =
  List.iter
    (fun id ->
      let ts = Scheduler.txn_state sched id in
      match Txn_state.phase ts with
      | Txn_state.Committed -> ()
      | Txn_state.Growing | Txn_state.Shrinking ->
          Weak.set weak id (Some ts);
          last.(id) <- counters_of ts)
    ids

let test_commit_retires_state () =
  let params =
    { Generator.default_params with n_entities = 8; zipf_theta = 0.9 }
  in
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed:4 ~n:30 in
  let sched =
    Scheduler.create ~config:{ (budget 30_000) with seed = 4 } store
  in
  let ids = List.map (fun p -> Scheduler.submit sched p) programs in
  let n = List.length ids in
  let weak = Weak.create n in
  let last = Array.make n { executed = 0; rollbacks = 0; peak = 0; monitored = 0 } in
  observe_live sched weak last ids;
  while Scheduler.step sched do
    observe_live sched weak last ids
  done;
  check_all_committed sched;
  Gc.full_major ();
  List.iter
    (fun id -> checkb "committed state collected" false (Weak.check weak id))
    ids;
  List.iter
    (fun id ->
      let ts = Scheduler.txn_state sched id in
      checkb "reported committed" true
        (Txn_state.phase ts = Txn_state.Committed);
      checkb "counters as at commit" true (counters_of ts = last.(id)))
    ids;
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 last in
  checkb "some rollbacks" true (sum (fun c -> c.rollbacks) > 0);
  checkb "some monitored writes" true (sum (fun c -> c.monitored) > 0);
  checkb "some copies" true (sum (fun c -> c.peak) > 0)

(* qcheck: any (seed, strategy, livelock-free policy) combination over a
   contended workload commits everything, stays serializable, and never
   lets a rollback touch the store. *)
let qcheck_serializability_sweep =
  QCheck.Test.make ~name:"runs complete serializably for all configurations"
    ~count:40
    QCheck.(triple small_int (int_bound 3) (int_bound 1))
    (fun (seed, strat_i, pol_i) ->
      let strategy =
        List.nth
          [ Strategy.Total; Strategy.Mcs; Strategy.Sdg; Strategy.Sdg_k 2 ]
          strat_i
      in
      let policy =
        List.nth [ Policy.Ordered_min_cost; Policy.Youngest ] pol_i
      in
      let params =
        {
          Generator.default_params with
          n_entities = 14;
          zipf_theta = 0.8;
          max_locks = 5;
        }
      in
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed ~n:30 in
      let config =
        { Scheduler.default_config with strategy; policy; seed;
          max_ticks = 150_000 }
      in
      let sched = Scheduler.create ~config store in
      List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
      Scheduler.run sched;
      Scheduler.all_committed sched
      && History.serializable (Scheduler.history sched))

(* Deferred detection (DESIGN.md Section 11): cycles accrete between
   scheduled sweeps instead of being resolved at block time, and one pass
   then clears all of them. *)
let test_deferred_sweep_batches_cycles () =
  let module DP = Prb_core.Detection_policy in
  let module Waits_for = Prb_wfg.Waits_for in
  let store =
    Store.of_list
      (List.map (fun e -> (e, Value.int 100)) [ "a"; "b"; "c"; "d" ])
  in
  let config = { (budget 280) with detection = DP.Periodic 16 } in
  let sched = Scheduler.create ~config store in
  let rounds = ref [] in
  Scheduler.set_deadlock_hook sched (fun ~requester:_ ~cycles ~decision:_ ->
      rounds := (Scheduler.now sched, List.length cycles) :: !rounds);
  (* two disjoint deadlocks, both fully formed within a few ticks *)
  let _ = Scheduler.submit sched (transfer ~name:"ab" ~src:"a" ~dst:"b" ~amount:1) in
  let _ = Scheduler.submit sched (transfer ~name:"ba" ~src:"b" ~dst:"a" ~amount:2) in
  let _ = Scheduler.submit sched (transfer ~name:"cd" ~src:"c" ~dst:"d" ~amount:3) in
  let _ = Scheduler.submit sched (transfer ~name:"dc" ~src:"d" ~dst:"c" ~amount:4) in
  Scheduler.run sched;
  let s = Scheduler.stats sched in
  check_all_committed sched;
  checkb "both cycles resolved" true (s.Scheduler.deadlocks >= 2);
  checkb "a scheduled sweep ran" true (s.Scheduler.detection_passes >= 1);
  (* deferral: nothing resolved before the first period boundary, even
     though both cycles were closed almost immediately *)
  List.iter
    (fun (tick, _) -> checkb "resolution waited for the sweep" true (tick >= 16))
    !rounds;
  (* removal left nothing behind: no residual waits, no orphaned locks *)
  checkb "waits-for graph drained" true
    (Waits_for.edges (Scheduler.waits_for sched) = []);
  checkb "no orphaned locks" true
    (List.for_all
       (fun id -> Prb_lock.Lock_table.n_held (Scheduler.lock_table sched) id = 0)
       (Scheduler.all_txns sched));
  checkb "serializable" true (History.serializable (Scheduler.history sched))

(* qcheck: every deferred policy, on a contended workload with the
   starvation guard armed, still commits everything, leaves the waits-for
   graph empty and the lock table clean, and keeps the worst-hit
   transaction within the guard's bound (unless a fallback was recorded —
   the one case the guard is allowed to be overridden). *)
let qcheck_deferred_liveness =
  let module DP = Prb_core.Detection_policy in
  let module Waits_for = Prb_wfg.Waits_for in
  QCheck.Test.make
    ~name:"deferred detection leaves no cycles, orphans or starvation"
    ~count:30
    QCheck.(
      triple small_int
        (int_bound (List.length DP.all_deferred - 1))
        (int_bound 1))
    (fun (seed, pol_i, strat_i) ->
      let detection = List.nth DP.all_deferred pol_i in
      let strategy = List.nth [ Strategy.Sdg; Strategy.Total ] strat_i in
      let params =
        {
          Generator.default_params with
          n_entities = 14;
          zipf_theta = 0.8;
          max_locks = 5;
        }
      in
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed ~n:30 in
      let config =
        {
          Scheduler.default_config with
          detection;
          starvation_limit = Some 6;
          strategy;
          seed;
          max_ticks = 500_000;
        }
      in
      let sched = Scheduler.create ~config store in
      List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
      Scheduler.run sched;
      let s = Scheduler.stats sched in
      Scheduler.all_committed sched
      && History.serializable (Scheduler.history sched)
      && Waits_for.edges (Scheduler.waits_for sched) = []
      && List.for_all
           (fun id ->
             Prb_lock.Lock_table.n_held (Scheduler.lock_table sched) id = 0)
           (Scheduler.all_txns sched)
      && (s.Scheduler.starvation_fallbacks > 0
         || s.Scheduler.max_txn_rollbacks <= 6)
      && Scheduler.n_blocked_tracked sched = 0)

(* qcheck: money conservation under concurrent transfers with deadlocks,
   for every strategy. *)
let qcheck_conservation =
  QCheck.Test.make ~name:"transfers conserve the total across rollbacks"
    ~count:40
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, strat_i) ->
      let strategy =
        List.nth
          [ Strategy.Total; Strategy.Mcs; Strategy.Sdg; Strategy.Sdg_k 1 ]
          strat_i
      in
      let module Scenarios = Prb_workload.Scenarios in
      let module Rng = Prb_util.Rng in
      let n_accounts = 6 in
      let store = Scenarios.bank_store ~n_accounts ~balance:500 in
      let rng = Rng.make seed in
      let programs =
        List.init 25 (fun i ->
            let src = Rng.int rng n_accounts in
            let dst = (src + 1 + Rng.int rng (n_accounts - 1)) mod n_accounts in
            Scenarios.transfer
              ~name:(Printf.sprintf "x%d" i)
              ~from_acct:src ~to_acct:dst
              ~amount:(1 + Rng.int rng 40))
      in
      let config = { Scheduler.default_config with strategy; seed } in
      let sched = Scheduler.create ~config store in
      List.iter (fun p -> ignore (Scheduler.submit sched p)) programs;
      Scheduler.run sched;
      Scheduler.all_committed sched
      && Store.Constraint.holds
           (Scenarios.balance_invariant ~n_accounts ~balance:500)
           store)

let () =
  Alcotest.run "prb_scheduler"
    [
      ( "basics",
        [
          Alcotest.test_case "deadlock resolved (all strategies)" `Quick
            test_deadlock_resolved_all_strategies;
          Alcotest.test_case "no conflict" `Quick test_no_conflict_no_deadlock;
          Alcotest.test_case "blocking without deadlock" `Quick
            test_blocking_without_deadlock;
          Alcotest.test_case "partial beats total" `Quick test_partial_beats_total_on_cost;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "hook fires" `Quick test_deadlock_hook_fires;
          Alcotest.test_case "store untouched by rollbacks" `Quick
            test_store_untouched_by_rollbacks;
        ] );
      ( "structure",
        [
          Alcotest.test_case "Theorem 1: single cycle (X only)" `Quick
            test_exclusive_only_single_cycle;
          Alcotest.test_case "Section 3.2: multi-cycle with S locks" `Quick
            test_shared_multi_cycles_happen;
          Alcotest.test_case "victims are growing" `Quick test_growing_victims_only;
          Alcotest.test_case "dirty-set fixpoint under contention" `Quick
            test_dirty_set_fixpoint_contended;
          Alcotest.test_case "blocked-since table drains" `Quick
            test_blocked_since_no_leak;
          Alcotest.test_case "deferred sweep batches cycles" `Quick
            test_deferred_sweep_batches_cycles;
          Alcotest.test_case "commit retires the state" `Quick
            test_commit_retires_state;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "hot workload completes" `Slow
            test_liveness_under_contention;
        ] );
      ( "interventions",
        [
          Alcotest.test_case "timeout abort" `Quick test_timeout_intervention;
          Alcotest.test_case "wound-wait / wait-die" `Quick
            test_prevention_interventions;
          Alcotest.test_case "wound-wait spares elders" `Quick
            test_wound_wait_spares_elders;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_serializability_sweep;
          QCheck_alcotest.to_alcotest qcheck_deferred_liveness;
          QCheck_alcotest.to_alcotest qcheck_conservation;
        ] );
    ]
