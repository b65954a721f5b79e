(* Tests for the fault-injection and recovery layer: site crashes and
   lock-table rebuild, message-fault idempotence, detector-outage
   degradation, transaction crashes, replay determinism, and the chaos
   harness — including the deliberately broken recovery path (skipping
   the rebuild) that the harness must catch. *)

module Fault = Prb_fault.Fault
module Chaos = Prb_chaos.Chaos
module D = Prb_distrib.Dist_scheduler
module Scheduler = Prb_core.Scheduler
module Store = Prb_storage.Store
module Value = Prb_storage.Value
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module History = Prb_history.History
module Lock_table = Prb_lock.Lock_table

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Plan plumbing ---------------------------------------------------- *)

let no_msg = { Fault.loss = 0.0; dup = 0.0; delay = 0.0; max_delay = 0 }

let test_plan_basics () =
  checkb "none is none" true (Fault.is_none Fault.none);
  checkb "a site crash makes it real" false
    (Fault.is_none
       {
         Fault.none with
         site_crashes = [ { Fault.site = 0; at = 5; downtime = 10 } ];
       });
  checki "backoff attempt 0" 10 (Fault.backoff ~attempt:0);
  checki "backoff attempt 3" 80 (Fault.backoff ~attempt:3);
  checki "backoff capped" 320 (Fault.backoff ~attempt:99);
  checkb "outage window" true
    (Fault.in_outage
       { Fault.none with detector_outages = [ { Fault.out_from = 10; out_until = 20 } ] }
       15);
  checkb "random plans deterministic" true
    (Fault.random ~n_sites:3 ~seed:5 ~horizon:400 ()
    = Fault.random ~n_sites:3 ~seed:5 ~horizon:400 ());
  checkb "random plans vary by seed" true
    (Fault.random ~n_sites:3 ~seed:5 ~horizon:400 ()
    <> Fault.random ~n_sites:3 ~seed:6 ~horizon:400 ())

(* --- A tiny two-site world ------------------------------------------- *)

(* Entities named "l*" live on site 0, "r*" on site 1. *)
let site_of e = if e.[0] = 'r' then 1 else 0

let two_site_store () =
  Store.of_list
    [ ("l0", Value.int 10); ("r0", Value.int 10) ]

let config ?(detection = D.Local_then_global 50) ?(max_ticks = 10_000) plan =
  {
    D.default_config with
    n_sites = 2;
    detection;
    max_ticks;
    faults = Some plan;
  }

let residual_rows locks =
  List.filter
    (fun e ->
      Lock_table.holders locks e <> [] || Lock_table.waiters locks e <> [])
    [ "l0"; "r0" ]

(* --- Site crash: partial rollback + recovery rebuild ------------------ *)

let test_site_crash_partial_rollback () =
  (* T0 (home 0) acquires the remote r0, then site 1 dies under it: the
     crash must roll T0 back to its last state not touching site 1, the
     rebuild must purge the dead row, and the retransmit path must let
     T0 reacquire and commit. *)
  let plan =
    {
      Fault.none with
      horizon = 500;
      site_crashes = [ { Fault.site = 1; at = 6; downtime = 30 } ];
      msg = no_msg;
    }
  in
  let store = two_site_store () in
  let sched = D.create ~site_of (config plan) store in
  let p =
    Program.make ~name:"t0" ~locals:[]
      [
        Program.lock_x "l0";
        Program.lock_x "r0";
        Program.write "l0" (Expr.int 1);
        Program.write "r0" (Expr.int 2);
      ]
  in
  ignore (D.submit sched ~home:0 p);
  D.run sched;
  let s = D.stats sched in
  checkb "all committed" true (D.all_committed sched);
  checki "one crash" 1 s.D.site_crashes;
  checki "one recovery" 1 s.D.site_recoveries;
  checkb "crash forced a rollback" true (s.D.rollbacks >= 1);
  checkb "rebuild purged the dead row" true (s.D.purged_locks >= 1);
  checkb "requests died with the site" true (s.D.msgs_lost >= 1);
  checkb "serializable" true (History.serializable (D.history sched));
  checkb "no residual locks" true (residual_rows (D.lock_table sched) = []);
  checkb "final writes installed" true
    (Value.as_int (Store.get store "r0") = 2
    && Value.as_int (Store.get store "l0") = 1)

let test_site_crash_during_deadlock () =
  (* Cross-site deadlock T0<->T1, then site 1 crashes mid-wait — before
     the global detector would have run. The crash restarts T1 (homed
     there), the rebuild cancels T0's dead queue entry, and both must
     still commit. *)
  let plan =
    {
      Fault.none with
      horizon = 500;
      site_crashes = [ { Fault.site = 1; at = 10; downtime = 25 } ];
      msg = no_msg;
    }
  in
  let store = two_site_store () in
  let sched = D.create ~site_of (config plan) store in
  let prog name first second =
    Program.make ~name ~locals:[]
      [
        Program.lock_x first;
        Program.lock_x second;
        Program.write first (Expr.int 7);
        Program.write second (Expr.int 8);
      ]
  in
  ignore (D.submit sched ~home:0 (prog "t0" "l0" "r0"));
  ignore (D.submit sched ~home:1 (prog "t1" "r0" "l0"));
  D.run sched;
  let s = D.stats sched in
  checkb "all committed" true (D.all_committed sched);
  checki "one crash" 1 s.D.site_crashes;
  checkb "serializable" true (History.serializable (D.history sched));
  checkb "no residual locks" true (residual_rows (D.lock_table sched) = [])

(* --- Message faults: duplication is idempotent ------------------------ *)

let test_duplicate_messages_idempotent () =
  (* Every message delivered twice: duplicate requests, grants and
     releases must all be absorbed without double-grants or phantom
     releases. *)
  let plan =
    {
      Fault.none with
      horizon = 5_000;
      msg = { Fault.loss = 0.0; dup = 1.0; delay = 0.0; max_delay = 0 };
    }
  in
  let store = two_site_store () in
  let sched = D.create ~site_of (config plan) store in
  let prog name first second =
    Program.make ~name ~locals:[]
      [
        Program.lock_x first;
        Program.lock_x second;
        Program.write first (Expr.int 3);
        Program.write second (Expr.int 4);
      ]
  in
  ignore (D.submit sched ~home:0 (prog "t0" "l0" "r0"));
  ignore (D.submit sched ~home:1 (prog "t1" "r0" "l0"));
  D.run sched;
  let s = D.stats sched in
  checkb "all committed" true (D.all_committed sched);
  checkb "duplicates actually happened" true (s.D.msgs_duplicated > 0);
  checkb "serializable" true (History.serializable (D.history sched));
  checkb "no residual locks" true (residual_rows (D.lock_table sched) = [])

(* --- Detector outage: degradation to timeout-abort -------------------- *)

let test_detector_outage_degrades () =
  (* A cross-site deadlock that only the global detector could see, and
     the detector is out: the engine must degrade to timeout-aborting
     long-blocked transactions, and still finish once the outage ends. *)
  let plan =
    {
      Fault.none with
      horizon = 5_000;
      detector_outages = [ { Fault.out_from = 0; out_until = 1_000 } ];
      msg = no_msg;
    }
  in
  let store = two_site_store () in
  let sched = D.create ~site_of (config ~max_ticks:50_000 plan) store in
  let prog name first second =
    Program.make ~name ~locals:[]
      [
        Program.lock_x first;
        Program.lock_x second;
        Program.write first (Expr.int 5);
        Program.write second (Expr.int 6);
      ]
  in
  ignore (D.submit sched ~home:0 (prog "t0" "l0" "r0"));
  ignore (D.submit sched ~home:1 (prog "t1" "r0" "l0"));
  D.run sched;
  let s = D.stats sched in
  checkb "all committed" true (D.all_committed sched);
  checkb "detector rounds were missed" true (s.D.missed_passes >= 1);
  checkb "degraded mode aborted blocked txns" true (s.D.timeouts >= 1);
  checkb "serializable" true (History.serializable (D.history sched));
  checkb "no residual locks" true (residual_rows (D.lock_table sched) = [])

(* A deadlock formed while the detector is out, under a deferred policy
   on the centralised engine: every scheduled sweep in the window is
   suppressed, so the blocked transactions overshoot the policy's stall
   bound — the watchdog must force a recovery sweep as soon as the
   detector is healthy again, and everything still commits. *)
let test_watchdog_fires_after_outage () =
  let module DP = Prb_core.Detection_policy in
  let plan =
    {
      Fault.none with
      horizon = 5_000;
      detector_outages = [ { Fault.out_from = 0; out_until = 400 } ];
      msg = no_msg;
    }
  in
  let store = Store.of_list [ ("a", Value.int 0); ("b", Value.int 0) ] in
  let config =
    {
      Scheduler.default_config with
      detection = DP.Periodic 16;
      faults = Some plan;
      max_ticks = 50_000;
    }
  in
  let sched = Scheduler.create ~config store in
  let prog name first second =
    Program.make ~name ~locals:[]
      [
        Program.lock_x first;
        Program.lock_x second;
        Program.write first (Expr.int 1);
        Program.write second (Expr.int 2);
      ]
  in
  ignore (Scheduler.submit sched (prog "t0" "a" "b"));
  ignore (Scheduler.submit sched (prog "t1" "b" "a"));
  Scheduler.run sched;
  let s = Scheduler.stats sched in
  checkb "all committed" true (Scheduler.all_committed sched);
  checkb "sweeps were suppressed" true (s.Scheduler.missed_passes >= 1);
  checkb "watchdog forced the recovery sweep" true
    (s.Scheduler.watchdog_fires >= 1);
  checkb "the deadlock was resolved, not timed out" true
    (s.Scheduler.deadlocks >= 1);
  checkb "serializable" true (History.serializable (Scheduler.history sched))

(* --- Transaction crashes (centralised engine) ------------------------- *)

let test_txn_crash_centralized () =
  let plan =
    {
      Fault.none with
      horizon = 500;
      txn_crashes = [ { Fault.crash_at = 4; victim = 0 } ];
      msg = no_msg;
    }
  in
  let store = Store.of_list [ ("a", Value.int 10); ("b", Value.int 10) ] in
  let config = { Scheduler.default_config with faults = Some plan } in
  let sched = Scheduler.create ~config store in
  (* padded with local work so the transactions are still growing when
     the crash fires at tick 4 *)
  let prog name e =
    Program.make ~name ~locals:[ ("x", Value.int 0) ]
      ([ Program.lock_x e ]
      @ List.init 4 (fun i -> Program.assign "x" (Expr.int i))
      @ [ Program.write e (Expr.int 9) ])
  in
  ignore (Scheduler.submit sched (prog "t0" "a"));
  ignore (Scheduler.submit sched (prog "t1" "b"));
  Scheduler.run sched;
  let s = Scheduler.stats sched in
  checkb "all committed" true (Scheduler.all_committed sched);
  checki "one txn crash" 1 s.Scheduler.txn_crashes;
  checkb "the crash rolled someone back" true (s.Scheduler.rollbacks >= 1);
  checkb "serializable" true
    (History.serializable (Scheduler.history sched))

(* --- Replay determinism under a messy plan ---------------------------- *)

let test_replay_determinism () =
  let plan =
    {
      Fault.none with
      horizon = 400;
      msg = { Fault.loss = 0.15; dup = 0.15; delay = 0.25; max_delay = 4 };
      site_crashes = [ { Fault.site = 1; at = 15; downtime = 40 } ];
      detector_outages = [ { Fault.out_from = 60; out_until = 200 } ];
    }
  in
  let run () =
    let store = two_site_store () in
    let sched = D.create ~site_of (config ~max_ticks:100_000 plan) store in
    let prog name first second =
      Program.make ~name ~locals:[]
        [
          Program.lock_x first;
          Program.lock_x second;
          Program.write first (Expr.int 11);
          Program.write second (Expr.int 12);
        ]
    in
    ignore (D.submit sched ~home:0 (prog "t0" "l0" "r0"));
    ignore (D.submit sched ~home:1 (prog "t1" "r0" "l0"));
    D.run sched;
    (D.stats sched, Store.snapshot store)
  in
  checkb "bit-for-bit replay" true (run () = run ())

(* --- The broken recovery path must be caught -------------------------- *)

(* T0 commits while site 1 is down, so its release of r0 is swallowed and
   reconciliation is left to the recovery rebuild. With the rebuild on,
   the phantom row is purged and T1 gets the lock; with the rebuild
   deliberately skipped (rebuild_locks = false) the committed phantom
   holds r0 forever and T1 wedges — exactly the failure class the chaos
   invariants (full commitment, empty lock table) exist to catch. *)
let broken_recovery_run ~rebuild_locks =
  let plan =
    {
      Fault.none with
      horizon = 500;
      site_crashes = [ { Fault.site = 1; at = 7; downtime = 30 } ];
      msg = no_msg;
      rebuild_locks;
    }
  in
  let store = two_site_store () in
  let sched = D.create ~site_of (config ~max_ticks:3_000 plan) store in
  (* T0: grabs r0, unlocks l0 to enter its shrinking phase before the
     crash (shrinking transactions are immune), then commits into the
     dead site. *)
  let t0 =
    Program.make ~name:"t0" ~locals:[]
      [
        Program.lock_x "r0";
        Program.lock_x "l0";
        Program.write "r0" (Expr.int 21);
        Program.unlock "l0";
      ]
  in
  (* T1: stalls on local work, then wants r0. *)
  let t1 =
    Program.make ~name:"t1" ~locals:[ ("x", Value.int 0) ]
      (List.init 6 (fun i -> Program.assign "x" (Expr.int i))
      @ [ Program.lock_x "r0"; Program.write "r0" (Expr.int 22) ])
  in
  ignore (D.submit sched ~home:0 t0);
  ignore (D.submit sched ~home:0 t1);
  D.run sched;
  sched

let test_rebuild_recovers () =
  let sched = broken_recovery_run ~rebuild_locks:true in
  checkb "all committed with rebuild" true (D.all_committed sched);
  checkb "phantom row purged" true ((D.stats sched).D.purged_locks >= 1);
  checkb "no residual locks" true (residual_rows (D.lock_table sched) = [])

let test_broken_rebuild_caught () =
  let sched = broken_recovery_run ~rebuild_locks:false in
  checkb "stuck transactions detected" false (D.all_committed sched);
  checkb "orphaned lock detected" true
    (residual_rows (D.lock_table sched) <> [])

(* --- The chaos sweep -------------------------------------------------- *)

let test_chaos_sweep () =
  (* 400 randomized (seed, fault plan) combinations across both engines;
     every invariant must hold on every one. Distributed seeds 30, 99 and
     112 end with a release swallowed by a still-down site: the run must
     last until that site's rebuild purges the orphaned row. *)
  let reports = Chaos.sweep ~seeds:200 () in
  checki "400 combinations" 400 (List.length reports);
  let bad = Chaos.failures reports in
  List.iter (fun r -> Fmt.epr "chaos failure: %a@." Chaos.pp_report r) bad;
  checkb "all chaos runs clean" true (bad = []);
  checkb "chaos actually injected faults" true
    (List.exists (fun r -> r.Chaos.faults_seen > 0) reports)

let test_chaos_policy_matrix () =
  (* every detection policy × detector-outage × engine: runs must stay
     deterministic, fully committed, orphan-free and starvation-free *)
  let reports = Chaos.policy_matrix ~seeds:2 () in
  checki "2 seeds x 3 policies x outage on/off x 2 engines" 24
    (List.length reports);
  let bad = Chaos.failures reports in
  List.iter (fun r -> Fmt.epr "chaos failure: %a@." Chaos.pp_report r) bad;
  checkb "all policy-matrix runs clean" true (bad = []);
  checkb "outage plans actually injected faults" true
    (List.exists (fun r -> r.Chaos.faults_seen > 0) reports);
  (* a central run's missed detector passes are faults it saw *)
  let central_outage =
    List.filter
      (fun r ->
        r.Chaos.engine = Chaos.Centralized
        && String.equal r.Chaos.label "adaptive/outage")
      reports
  in
  checki "central adaptive/outage cells" 2 (List.length central_outage);
  checkb "central outage cells count their missed passes" true
    (List.for_all (fun r -> r.Chaos.faults_seen >= 1) central_outage)

let () =
  Alcotest.run "prb_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "basics" `Quick test_plan_basics;
        ] );
      ( "site crash",
        [
          Alcotest.test_case "partial rollback + rebuild" `Quick
            test_site_crash_partial_rollback;
          Alcotest.test_case "crash during deadlock" `Quick
            test_site_crash_during_deadlock;
        ] );
      ( "messages",
        [
          Alcotest.test_case "duplicates idempotent" `Quick
            test_duplicate_messages_idempotent;
        ] );
      ( "detector outage",
        [
          Alcotest.test_case "degrades to timeout-abort" `Quick
            test_detector_outage_degrades;
          Alcotest.test_case "watchdog fires after outage" `Quick
            test_watchdog_fires_after_outage;
        ] );
      ( "txn crash",
        [
          Alcotest.test_case "centralized crash + readmit" `Quick
            test_txn_crash_centralized;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay bit-for-bit" `Quick
            test_replay_determinism;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "rebuild recovers" `Quick test_rebuild_recovers;
          Alcotest.test_case "broken rebuild caught" `Quick
            test_broken_rebuild_caught;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "sweep 400 plans" `Slow test_chaos_sweep;
          Alcotest.test_case "policy x outage matrix" `Slow
            test_chaos_policy_matrix;
        ] );
    ]
