(* Tests for Prb_distrib: the multi-site engine, both detection schemes,
   and the message accounting of Section 3.3. *)

module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim
module Generator = Prb_workload.Generator
module Strategy = Prb_rollback.Strategy
module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module History = Prb_history.History
module Scheduler = Prb_core.Scheduler
module Policy = Prb_core.Policy
module Run_stats = Prb_core.Run_stats
module DP = Prb_core.Detection_policy
module Sim = Prb_sim.Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let params =
  { Generator.default_params with n_entities = 24; zipf_theta = 0.7; max_locks = 5 }

let run_workload ?(n = 60) ?(mpl = 8) detection strategy =
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed:4 ~n in
  let config =
    {
      Dist_sim.scheduler =
        {
          D.default_config with
          n_sites = 4;
          detection;
          strategy;
          seed = 4;
          max_ticks = 400_000;
        };
      mpl;
    }
  in
  Dist_sim.run ~config ~store programs

let test_local_global_completes () =
  List.iter
    (fun strategy ->
      let r = run_workload (D.Local_then_global 40) strategy in
      checki "all commit" 60 r.Dist_sim.stats.D.commits;
      checkb "serializable" true r.Dist_sim.serializable)
    Strategy.all_basic

let test_wound_wait_completes_deadlock_free () =
  List.iter
    (fun strategy ->
      let r = run_workload D.Wound_wait strategy in
      checki "all commit" 60 r.Dist_sim.stats.D.commits;
      checki "zero deadlocks" 0 r.Dist_sim.stats.D.deadlocks;
      checkb "wounds happened" true (r.Dist_sim.stats.D.preventions > 0);
      checkb "serializable" true r.Dist_sim.serializable)
    Strategy.all_basic

let test_total_ships_nothing () =
  let r = run_workload (D.Local_then_global 40) Strategy.Total in
  checki "no bookkeeping shipped" 0 r.Dist_sim.stats.D.shipped_copies

let test_partial_ships_bookkeeping () =
  let r = run_workload (D.Local_then_global 40) Strategy.Sdg in
  checkb "bookkeeping follows moving txns" true
    (r.Dist_sim.stats.D.shipped_copies > 0)

let test_messages_accounted () =
  let r = run_workload (D.Local_then_global 40) Strategy.Sdg in
  checkb "remote traffic exists" true (r.Dist_sim.stats.D.messages > 0);
  checkb "detector ran" true (r.Dist_sim.stats.D.detection_passes > 0)

let test_single_site_degenerates () =
  (* one site: everything local, no messages, local detection only *)
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed:4 ~n:40 in
  let config =
    {
      Dist_sim.scheduler =
        {
          D.default_config with
          n_sites = 1;
          detection = D.Local_then_global 40;
          seed = 4;
        };
      mpl = 8;
    }
  in
  let r = Dist_sim.run ~config ~store programs in
  checki "commits" 40 r.Dist_sim.stats.D.commits;
  checki "no global deadlocks" 0 r.Dist_sim.stats.D.global_deadlocks;
  checki "no remote messages" 0
    (r.Dist_sim.stats.D.messages - r.Dist_sim.stats.D.detection_passes)

let test_cross_site_deadlock_needs_global_detector () =
  (* a two-site deadlock: the contested entities live on different sites,
     so neither site alone can see the cycle; only the global detector
     resolves it. *)
  let store = Store.of_list [ ("ea", Value.int 0); ("eb", Value.int 0) ] in
  let site_of = function "ea" -> 0 | _ -> 1 in
  let config =
    { D.default_config with n_sites = 2; detection = D.Local_then_global 25 }
  in
  let d = D.create ~site_of config store in
  let p name first second =
    Program.make ~name ~locals:[ ("v", Value.int 0) ]
      [
        Program.lock_x first;
        Program.read first "v";
        Program.lock_x second;
        Program.write second Expr.(var "v" + int 1);
      ]
  in
  let _ = D.submit d ~home:0 (p "t0" "ea" "eb") in
  let _ = D.submit d ~home:1 (p "t1" "eb" "ea") in
  D.run d;
  let s = D.stats d in
  checki "both commit" 2 s.D.commits;
  checki "no local deadlock seen" 0 s.D.local_deadlocks;
  checkb "global detector resolved it" true (s.D.global_deadlocks >= 1);
  (* the block that closes the cross-site cycle enumerates nothing: its
     site-filtered probe sees no cycle on the requester's site *)
  checki "only global rounds enumerate" s.D.global_deadlocks
    s.D.enumerate_calls;
  checkb "stalled until a detection round" true (s.D.detection_passes >= 1);
  checkb "serializable" true (History.serializable (D.history d))

let test_same_site_deadlock_resolved_locally () =
  let store = Store.of_list [ ("ea", Value.int 0); ("eb", Value.int 0) ] in
  let site_of _ = 0 in
  let config =
    { D.default_config with n_sites = 2; detection = D.Local_then_global 1000 }
  in
  let d = D.create ~site_of config store in
  let p name first second =
    Program.make ~name ~locals:[ ("v", Value.int 0) ]
      [
        Program.lock_x first;
        Program.read first "v";
        Program.lock_x second;
        Program.write second Expr.(var "v" + int 1);
      ]
  in
  let _ = D.submit d ~home:0 (p "t0" "ea" "eb") in
  let _ = D.submit d ~home:0 (p "t1" "eb" "ea") in
  D.run d;
  let s = D.stats d in
  checki "both commit" 2 s.D.commits;
  checkb "resolved locally, immediately" true (s.D.local_deadlocks >= 1);
  checkb "well before the first detection round" true (s.D.ticks < 100)

let test_wound_wait_orders_by_age () =
  (* older requester wounds younger holder; the younger requester waits *)
  let store = Store.of_list [ ("ea", Value.int 0) ] in
  let config = { D.default_config with n_sites = 1; detection = D.Wound_wait } in
  let d = D.create config store in
  let hold =
    Program.make ~name:"holder" ~locals:[ ("v", Value.int 0) ]
      [
        Program.lock_x "ea";
        Program.read "ea" "v";
        Program.read "ea" "v";
        Program.read "ea" "v";
        Program.write "ea" Expr.(var "v" + int 1);
      ]
  in
  (* t0 (older) arrives second at the entity: holder is t1? — here t1 is
     the younger and holds; t0's request wounds it. *)
  let slow_start =
    Program.make ~name:"older" ~locals:[ ("w", Value.int 0) ]
      [
        Program.assign "w" (Expr.int 1);
        Program.assign "w" (Expr.int 2);
        Program.lock_x "ea";
        Program.write "ea" (Expr.int 99);
      ]
  in
  let _ = D.submit d ~home:0 slow_start (* id 0 = older *) in
  let _ = D.submit d ~home:0 hold (* id 1 = younger, locks first *) in
  D.run d;
  let s = D.stats d in
  checki "both commit" 2 s.D.commits;
  checkb "the younger holder was wounded" true (s.D.preventions >= 1);
  checkb "serializable" true (History.serializable (D.history d))

let test_deterministic () =
  let run () =
    let r = run_workload (D.Local_then_global 40) Strategy.Sdg in
    r.Dist_sim.stats
  in
  checkb "same stats" true (run () = run ())

(* qcheck: any (seed, detection, strategy) combination completes
   serializably. *)
let qcheck_distrib_serializable =
  QCheck.Test.make
    ~name:"distributed runs complete serializably for all configurations"
    ~count:20
    QCheck.(triple small_int bool (int_bound 2))
    (fun (seed, wound, strat_i) ->
      let strategy = List.nth Strategy.all_basic strat_i in
      let detection = if wound then D.Wound_wait else D.Local_then_global 30 in
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed ~n:30 in
      let config =
        {
          Dist_sim.scheduler =
            {
              D.default_config with
              n_sites = 3;
              detection;
              strategy;
              seed;
              max_ticks = 200_000;
            };
          mpl = 6;
        }
      in
      let r = Dist_sim.run ~config ~store programs in
      r.Dist_sim.stats.D.commits = 30 && r.Dist_sim.serializable)

(* Deferred detection policies on the multi-site engine: global rounds
   batch several accreted cycles, and their victims restart staggered with
   escalation for repeat victims — without that, the deterministic
   workload replays the same collision forever (the livelock this test
   regresses). Every deferred policy must still complete the contended
   workload. The last input is the site-local form of that livelock: when
   block-time local rounds under a deferred policy skipped the backoff
   and escalation, this run re-picked one local victim 11,412 times and
   stopped at 396 of 500 commits. *)
let test_deferred_policies_complete () =
  let completes ~params ~seed ~n ~mpl scheduler =
    let programs = Generator.generate params ~seed ~n in
    let r =
      Dist_sim.run
        ~config:{ Dist_sim.scheduler; mpl }
        ~store:(Generator.populate params) programs
    in
    let s = r.Dist_sim.stats in
    let policy = scheduler.D.detection_policy in
    checki (Fmt.str "all commit under %a (seed %d)" DP.pp policy seed) n
      s.D.commits;
    checkb "cycles were actually deferred to global rounds" true
      (s.D.global_deadlocks >= 1);
    checkb "serializable" true r.Dist_sim.serializable
  in
  List.iter
    (fun detection_policy ->
      completes ~params ~seed:4 ~n:60 ~mpl:8
        {
          D.default_config with
          n_sites = 4;
          detection = D.Local_then_global 40;
          detection_policy;
          starvation_limit = Some 8;
          seed = 4;
          max_ticks = 400_000;
        })
    DP.all_deferred;
  completes
    ~params:{ Generator.default_params with zipf_theta = 0.8 }
    ~seed:2 ~n:500 ~mpl:16
    {
      D.default_config with
      detection_policy = DP.Adaptive;
      seed = 2;
      max_ticks = 100_000;
    }

(* --- The shared engine core ----------------------------------------- *)

(* A contended fixed-seed workload run through both engines on the same
   programs: the central engine under its defaults, the distributed one
   under its own on four sites. *)
let hot_params =
  { Generator.default_params with n_entities = 16; zipf_theta = 0.9; max_locks = 6 }

let run_both strategy =
  let programs = Generator.generate hot_params ~seed:7 ~n:80 in
  let central =
    Sim.run
      ~config:
        {
          Sim.scheduler = { Scheduler.default_config with strategy; seed = 7 };
          mpl = 12;
        }
      ~store:(Generator.populate hot_params) programs
  in
  let distrib =
    Dist_sim.run
      ~config:
        {
          Dist_sim.scheduler = { D.default_config with strategy; seed = 7 };
          mpl = 12;
        }
      ~store:(Generator.populate hot_params) programs
  in
  (central.Sim.stats, distrib.Dist_sim.stats)

(* Every resolution round breaks its cycles through at least one victim,
   which either rolls back or requeues — in both engines, now that both
   count requeues and overshoot through the one rollback path. MCS rolls
   back exactly to the releasing lock state, so it never overshoots. *)
let test_requeues_and_overshoot_counted () =
  List.iter
    (fun strategy ->
      let c, d = run_both strategy in
      let name = Strategy.to_string strategy in
      checkb (name ^ ": central deadlocks happened") true
        (c.Scheduler.deadlocks > 0);
      checkb (name ^ ": distrib deadlocks happened") true (d.D.deadlocks > 0);
      checkb (name ^ ": central victims cover deadlocks") true
        (c.Scheduler.rollbacks + c.Scheduler.requeues >= c.Scheduler.deadlocks);
      checkb (name ^ ": distrib victims cover deadlocks") true
        (d.D.rollbacks + d.D.requeues >= d.D.deadlocks);
      if Strategy.equal strategy Strategy.Mcs then begin
        checki "central MCS overshoot" 0 c.Scheduler.overshoot_ops;
        checki "distrib MCS overshoot" 0 d.D.overshoot_ops
      end)
    Strategy.all_basic

(* --- Central vs one-site equivalence (DESIGN.md Section 15) ----------- *)

(* Both engines report one record; reading it through one list also pins
   that [Scheduler.stats] and [D.stats] are that type. Check and
   enumerate call counts are left out: the engines detect differently. *)
let shared_counters =
  Run_stats.
    [
      ("commits", fun s -> s.commits);
      ("ticks", fun s -> s.ticks);
      ("deadlocks", fun s -> s.deadlocks);
      ("cycles broken", fun s -> s.cycles_broken);
      ("rollbacks", fun s -> s.rollbacks);
      ("requeues", fun s -> s.requeues);
      ("ops lost", fun s -> s.ops_lost);
      ("overshoot", fun s -> s.overshoot_ops);
      ("ops committed", fun s -> s.ops_committed);
      ("ops executed", fun s -> s.ops_executed);
      ("blocks", fun s -> s.blocks);
      ("peak copies", fun s -> s.peak_copies);
      ("optimal resolutions", fun s -> s.optimal_resolutions);
      ("max txn rollbacks", fun s -> s.max_txn_rollbacks);
      ("max blocked ticks", fun s -> s.max_blocked_ticks);
      ("total blocked ticks", fun s -> s.total_blocked_ticks);
      ("starvation fallbacks", fun s -> s.starvation_fallbacks);
      ("preventions", fun s -> s.preventions);
      ("timeouts", fun s -> s.timeouts);
    ]

type workload = {
  w_params : Generator.params;
  w_seed : int;
  w_n : int;
  w_mpl : int;
  w_max_ticks : int;
}

let pp_workload ppf w =
  let p = w.w_params in
  Fmt.pf ppf
    "entities %d, theta %.3f, reads %.3f, locks %d:%d, mpl %d, seed %d, %d \
     txns, %d ticks"
    p.Generator.n_entities p.zipf_theta p.read_fraction p.min_locks
    p.max_locks w.w_mpl w.w_seed w.w_n w.w_max_ticks

(* One configuration through both engines: what differs, by name. The
   intervention is detection under [policy], or wound-wait when [policy]
   is [None]. *)
let equivalence_diffs w strategy policy =
  let programs = Generator.generate w.w_params ~seed:w.w_seed ~n:w.w_n in
  let c =
    Sim.central
      (Scheduler.create
         ~config:
           {
             Scheduler.default_config with
             strategy;
             policy = Option.value policy ~default:Policy.Ordered_min_cost;
             intervention =
               (if policy = None then Scheduler.Wound_wait_c
                else Scheduler.Detect);
             seed = w.w_seed;
             max_ticks = w.w_max_ticks;
           }
         (Generator.populate w.w_params))
  in
  let d =
    Dist_sim.engine
      (D.create
         {
           D.default_config with
           n_sites = 1;
           strategy;
           policy = Option.value policy ~default:D.default_config.D.policy;
           detection =
             (if policy = None then D.Wound_wait
              else D.default_config.D.detection);
           seed = w.w_seed;
           max_ticks = w.w_max_ticks;
         }
         (Generator.populate w.w_params))
  in
  Sim.drive c ~mpl:w.w_mpl programs;
  Sim.drive d ~mpl:w.w_mpl programs;
  let cs = c.stats () and ds = d.stats () in
  List.filter_map
    (fun (what, get) -> if get cs = get ds then None else Some what)
    shared_counters
  @ (if ds.D.global_deadlocks = 0 then [] else [ "global deadlocks" ])
  @
  if
    History.equivalent_serial_order c.history
    = History.equivalent_serial_order d.history
  then []
  else [ "serial order" ]

(* Every strategy under every victim policy the two engines share, and
   wound-wait under every strategy. *)
let equivalence_configs =
  List.concat_map
    (fun strategy ->
      (strategy, None)
      :: List.map
           (fun policy -> (strategy, Some policy))
           Policy.[ Ordered_min_cost; Youngest; Min_cost; Requester ])
    Strategy.all_basic

let equivalent w =
  List.for_all
    (fun (strategy, policy) ->
      match equivalence_diffs w strategy policy with
      | [] -> true
      | diffs ->
          QCheck.Test.fail_reportf "%a under %s, %s: %s differ" pp_workload w
            (Strategy.to_string strategy)
            (match policy with
            | Some p -> Policy.to_string p
            | None -> "wound-wait")
            (String.concat ", " diffs))
    equivalence_configs

let workload_gen =
  QCheck.Gen.(
    let* n_entities = int_range 6 65 in
    let* zipf_theta = float_range 0.0 1.0 in
    let* read_fraction = float_range 0.0 0.7 in
    let* max_locks = int_range 1 6 in
    let* min_locks = int_range 1 max_locks in
    let* w_mpl = int_range 2 15 in
    let* w_seed = int_bound 10_000 in
    return
      {
        w_params =
          {
            Generator.default_params with
            n_entities;
            zipf_theta;
            read_fraction;
            min_locks;
            max_locks;
          };
        w_seed;
        w_n = 40;
        w_mpl;
        w_max_ticks = 5_000;
      })

(* A fault-free one-site distributed run sees every cycle locally at
   block time, so under the same victim policy it reproduces the central
   run exactly: every shared counter, the certifier's serial order, and
   no global deadlock (DESIGN.md Section 15). Runs that livelock stop at
   the tick cap identically in both engines. *)
let qcheck_single_site_matches_central =
  QCheck.Test.make ~name:"single site matches central" ~count:24
    (QCheck.make ~print:(Fmt.to_to_string pp_workload) workload_gen)
    equivalent

(* The contended workload the property grew from runs first, through the
   same check. *)
let single_site_matches_central =
  let name, speed, run =
    QCheck_alcotest.to_alcotest qcheck_single_site_matches_central
  in
  ( name,
    speed,
    fun () ->
      checkb "the fixed workload" true
        (equivalent
           {
             w_params = hot_params;
             w_seed = 7;
             w_n = 80;
             w_mpl = 12;
             w_max_ticks = 5_000;
           });
      run () )

(* A [Periodic n] policy with [n < 1] would re-arm its pass at the current
   tick forever; both engines refuse it at creation. *)
let test_periodic_below_one_rejected () =
  List.iter
    (fun n ->
      let detection = DP.Periodic n in
      let err =
        Invalid_argument
          (Printf.sprintf "Detection_policy: periodic:%d (period < 1)" n)
      in
      Alcotest.check_raises "central" err (fun () ->
          ignore
            (Scheduler.create
               ~config:{ Scheduler.default_config with detection }
               (Store.of_list [])));
      Alcotest.check_raises "distributed" err (fun () ->
          ignore
            (D.create
               { D.default_config with detection_policy = detection }
               (Store.of_list []))))
    [ 0; -1 ]

(* A caller's [site_of] that names a site past [n_sites - 1] is refused
   with the entity and the site, not by an array bound part-way through
   the run. *)
let test_site_of_out_of_range () =
  let params =
    { Generator.default_params with n_entities = 16; zipf_theta = 0.8 }
  in
  let store = Generator.populate params in
  let site_of e =
    if e.[String.length e - 1] = '7' then 4
    else Value.as_int (Value.text e) mod 4
  in
  let d = D.create ~site_of { D.default_config with n_sites = 4 } store in
  List.iteri
    (fun i p -> ignore (D.submit d ~home:(i mod 4) p))
    (Generator.generate params ~seed:1 ~n:40);
  Alcotest.check_raises "site 4 of 4 sites"
    (Invalid_argument
       "Dist_scheduler.site_of: entity \"e0007\" maps to site 4 (n_sites = 4)")
    (fun () -> D.run d)

(* The default site map is the entity name's FNV-1a hash modulo the
   site count. Pinned for the generator's first 64 names at 4 sites, so a
   changed fold fails here by name, not only through a golden. *)
let test_default_site_map () =
  let d = D.create { D.default_config with n_sites = 4 } (Store.of_list []) in
  let sites = List.init 64 (fun i -> D.site_of d (Printf.sprintf "e%04d" i)) in
  Alcotest.(check string)
    "sites of e0000-e0063"
    "0321032103123012301221032103213012301230032103210312301230122103"
    (String.concat "" (List.map string_of_int sites));
  List.iter
    (fun s ->
      checki
        (Printf.sprintf "entities on site %d" s)
        16
        (List.length (List.filter (Int.equal s) sites)))
    [ 0; 1; 2; 3 ]

(* --- Entity order ------------------------------------------------------ *)

(* Every observable order follows entity names, never the order in which
   a store first met them. The same contended programs run through both
   engines on a store defined in name order and on one defined in reverse
   name order, and each engine must leave the same trace on both: its log
   lines (the queue grants a commit makes follow its release order, and a
   rollback's line lists what the resolver asked it to release), the
   deadlock hook's victims, the stats, the serial order and the final
   state. *)
let order_params =
  {
    Generator.default_params with
    n_entities = 10;
    zipf_theta = 0.9;
    read_fraction = 0.4;
    min_locks = 3;
    max_locks = 5;
    explicit_unlocks = false;
  }

let store_in_order ~reverse =
  let bindings = Store.snapshot (Generator.populate order_params) in
  let store = Store.create () in
  List.iter
    (fun (e, v) -> Store.define store e v)
    (if reverse then List.rev bindings else bindings);
  store

(* Runs [f] with the engines' log source at debug level and every line it
   prints appended to the returned buffer. *)
let logged f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let report _ _ ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kfprintf
          (fun ppf ->
            Format.pp_print_newline ppf ();
            over ();
            k ())
          ppf fmt)
  in
  let src = Prb_core.Engine.log_src in
  let reporter = Logs.reporter () and level = Logs.Src.level src in
  Logs.set_reporter { Logs.report };
  Logs.Src.set_level src (Some Logs.Debug);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.Src.set_level src level)
    (fun () ->
      let rest = f () in
      Buffer.contents buf ^ rest)

let serial_state history store =
  Fmt.str "%a@.%a"
    Fmt.(option (list ~sep:sp int))
    (History.equivalent_serial_order history)
    Fmt.(list ~sep:sp (pair ~sep:(any "=") string Value.pp))
    (Store.snapshot store)

let central_trace ~reverse =
  let store = store_in_order ~reverse in
  let s =
    Scheduler.create
      ~config:{ Scheduler.default_config with policy = Policy.Min_cost; seed = 5 }
      store
  in
  let hooked = Buffer.create 256 in
  Scheduler.set_deadlock_hook s (fun ~requester ~cycles:_ ~decision ->
      List.iter
        (fun (v, es) ->
          Buffer.add_string hooked
            (Fmt.str "T%d: T%d releases %s@." requester v (String.concat "," es)))
        decision.Prb_core.Resolver.victims);
  logged (fun () ->
      List.iter
        (fun p -> ignore (Scheduler.submit s p))
        (Generator.generate order_params ~seed:9 ~n:40);
      Scheduler.run s;
      Fmt.str "%s%a@.%s" (Buffer.contents hooked) Scheduler.pp_stats
        (Scheduler.stats s)
        (serial_state (Scheduler.history s) store))

let distrib_trace ~reverse =
  let store = store_in_order ~reverse in
  let d =
    D.create { D.default_config with n_sites = 2; seed = 5 } store
  in
  logged (fun () ->
      List.iteri
        (fun i p -> ignore (D.submit d ~home:(i mod 2) p))
        (Generator.generate order_params ~seed:9 ~n:40);
      D.run d;
      Fmt.str "%a@.%s" D.pp_stats (D.stats d)
        (serial_state (D.history d) store))

let contains s sub =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || from (i + 1))
  in
  from 0

let test_name_order () =
  let check what trace =
    let forward = trace ~reverse:false and reverse = trace ~reverse:true in
    checkb (what ^ " deadlocks") true
      (contains forward "deadlock:" && contains forward "(from queue)");
    Alcotest.(check string) what forward reverse
  in
  check "central" central_trace;
  check "distributed" distrib_trace;
  let names = List.map fst (Store.snapshot (store_in_order ~reverse:false)) in
  Alcotest.(check (list string)) "entities by name" names
    (Store.entities (store_in_order ~reverse:true));
  checkb "names ascend" true (List.sort String.compare names = names);
  (* The lock table's and the transaction's own lists, directly: a
     transaction locks three entities out of name order on the reversed
     store. *)
  let store = store_in_order ~reverse:true in
  let picked = [ List.nth names 3; List.nth names 1; List.nth names 7 ] in
  let sorted = List.sort String.compare picked in
  let name (x, _) = Store.name store x in
  let locks = Prb_lock.Lock_table.create store in
  List.iter
    (fun e ->
      ignore
        (Prb_lock.Lock_table.request locks 1 Prb_txn.Lock_mode.Exclusive
           (Store.id store e)))
    picked;
  Alcotest.(check (list string)) "held_by" sorted
    (List.map name (Prb_lock.Lock_table.held_by locks 1));
  let module Ts = Prb_rollback.Txn_state in
  let program =
    Program.make ~name:"t" ~locals:[]
      (List.concat_map
         (fun e -> [ Program.lock_x e; Program.write e (Expr.Const (Value.int 1)) ])
         picked)
  in
  let ts = Ts.create ~strategy:Strategy.Mcs ~id:1 ~store program in
  let rec drive () =
    match Ts.next_action ts with
    | Ts.Need_lock _ -> Ts.lock_granted ts; drive ()
    | Ts.Data_step -> Ts.exec_data_op ts; drive ()
    | Ts.Need_unlock -> ignore (Ts.perform_unlock ts); drive ()
    | Ts.At_end -> ()
  in
  drive ();
  Alcotest.(check (list string)) "commit finals" sorted
    (List.map name (Ts.commit ts))

let () =
  Alcotest.run "prb_distrib"
    [
      ( "workloads",
        [
          Alcotest.test_case "local+global completes" `Slow test_local_global_completes;
          Alcotest.test_case "wound-wait completes" `Quick
            test_wound_wait_completes_deadlock_free;
          Alcotest.test_case "total ships nothing" `Quick test_total_ships_nothing;
          Alcotest.test_case "partial ships bookkeeping" `Quick
            test_partial_ships_bookkeeping;
          Alcotest.test_case "messages accounted" `Quick test_messages_accounted;
          Alcotest.test_case "single site degenerates" `Quick test_single_site_degenerates;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          QCheck_alcotest.to_alcotest qcheck_distrib_serializable;
        ] );
      ( "detection",
        [
          Alcotest.test_case "cross-site needs global detector" `Quick
            test_cross_site_deadlock_needs_global_detector;
          Alcotest.test_case "same-site resolved locally" `Quick
            test_same_site_deadlock_resolved_locally;
          Alcotest.test_case "wound-wait ages" `Quick test_wound_wait_orders_by_age;
          Alcotest.test_case "deferred policies complete" `Slow
            test_deferred_policies_complete;
        ] );
      ( "engine",
        [
          Alcotest.test_case "requeues and overshoot counted" `Quick
            test_requeues_and_overshoot_counted;
          single_site_matches_central;
          Alcotest.test_case "periodic below one rejected" `Quick
            test_periodic_below_one_rejected;
          Alcotest.test_case "site_of out of range rejected" `Quick
            test_site_of_out_of_range;
          Alcotest.test_case "default site map" `Quick test_default_site_map;
        ] );
      ("numbering", [ Alcotest.test_case "name order" `Quick test_name_order ]);
    ]
