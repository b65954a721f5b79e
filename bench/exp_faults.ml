(* E12: fault injection and recovery (DESIGN.md Section 7) — what the
   failure regime costs, and that the recovery machinery holds the
   system's invariants under it. *)

open Common
module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim
module Fault = Prb_fault.Fault
module Chaos = Prb_chaos.Chaos

let base_params =
  {
    Generator.default_params with
    n_entities = 40;
    zipf_theta = 0.6;
    max_locks = 5;
  }

let run_faulted ?(n_sites = 4) ?(max_ticks = 600_000) ~n_txns plan =
  let store = Generator.populate base_params in
  let programs = Generator.generate base_params ~seed:3 ~n:n_txns in
  let config =
    {
      Dist_sim.scheduler =
        {
          D.default_config with
          n_sites;
          detection = D.Local_then_global 40;
          seed = 3;
          max_ticks;
          faults = (if Fault.is_none plan then None else Some plan);
        };
      mpl = 10;
    }
  in
  Dist_sim.run ~config ~store programs

(* message-fault sweep: loss and duplication vs retransmission traffic *)
let message_faults n_txns =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "message loss/duplication sweep (4 sites, %d txns, horizon 4000)"
           n_txns)
      [
        ("loss", Table.Right);
        ("dup", Table.Right);
        ("commits", Table.Right);
        ("lost", Table.Right);
        ("dup'd", Table.Right);
        ("retransmits", Table.Right);
        ("msgs/commit", Table.Right);
        ("ticks", Table.Right);
      ]
  in
  List.iter
    (fun (loss, dup) ->
      let plan =
        {
          Fault.none with
          fault_seed = 11;
          horizon = 4_000;
          msg = { Fault.loss; dup; delay = 0.1; max_delay = 4 };
        }
      in
      let r = run_faulted ~n_txns plan in
      let s = r.Dist_sim.stats in
      Table.add_row table
        [
          f2 loss;
          f2 dup;
          i s.D.commits;
          i s.D.msgs_lost;
          i s.D.msgs_duplicated;
          i s.D.retransmissions;
          f2 r.Dist_sim.messages_per_commit;
          i s.D.ticks;
        ])
    [ (0.0, 0.0); (0.05, 0.05); (0.15, 0.15); (0.3, 0.3) ];
  Table.print table;
  note
    "every lost request or grant costs one timeout window before the\n\
     probe retransmits, so loss stretches the run far more than it\n\
     inflates message counts; duplicates are absorbed by idempotent\n\
     handlers and cost nothing but the wire traffic."

(* site-crash sweep: recovery work vs crash frequency *)
let site_crashes n_txns =
  let table =
    Table.create
      ~title:
        (Printf.sprintf "site-crash sweep (4 sites, %d txns, downtime 80)"
           n_txns)
      [
        ("crashes", Table.Right);
        ("commits", Table.Right);
        ("recoveries", Table.Right);
        ("rollbacks", Table.Right);
        ("purged locks", Table.Right);
        ("ops lost", Table.Right);
        ("ticks", Table.Right);
      ]
  in
  List.iter
    (fun n_crashes ->
      let plan =
        {
          Fault.none with
          fault_seed = 12;
          horizon = 8_000;
          site_crashes =
            List.init n_crashes (fun k ->
                {
                  Fault.site = k mod 4;
                  at = 60 + (220 * k);
                  downtime = 80;
                });
        }
      in
      let r = run_faulted ~n_txns plan in
      let s = r.Dist_sim.stats in
      Table.add_row table
        [
          i s.D.site_crashes;
          i s.D.commits;
          i s.D.site_recoveries;
          i s.D.rollbacks;
          i s.D.purged_locks;
          i s.D.ops_lost;
          i s.D.ticks;
        ])
    [ 0; 1; 2; 4 ];
  Table.print table;
  note
    "a crash restarts the growing transactions homed on the site and\n\
     partially rolls back remote holders of its entities — the same\n\
     roll-back-to-the-latest-safe-state machinery the paper builds for\n\
     deadlocks, reused as crash recovery; the rebuild purges whatever\n\
     lock rows the dead site's departures orphaned."

(* detector outage: degraded timeout-abort keeps the system live *)
let detector_outage n_txns =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "detector outage (4 sites, %d txns, detection period 40)" n_txns)
      [
        ("outage", Table.Left);
        ("commits", Table.Right);
        ("missed rounds", Table.Right);
        ("timeout aborts", Table.Right);
        ("deadlocks l/g", Table.Left);
        ("ticks", Table.Right);
      ]
  in
  List.iter
    (fun (label, outages) ->
      let plan =
        {
          Fault.none with
          fault_seed = 13;
          horizon = 20_000;
          detector_outages = outages;
        }
      in
      let r = run_faulted ~n_txns plan in
      let s = r.Dist_sim.stats in
      Table.add_row table
        [
          label;
          i s.D.commits;
          i s.D.missed_passes;
          i s.D.timeouts;
          Printf.sprintf "%d/%d" s.D.local_deadlocks s.D.global_deadlocks;
          i s.D.ticks;
        ])
    [
      ("none", []);
      ("[0,2k)", [ { Fault.out_from = 0; out_until = 2_000 } ]);
      ("[0,10k)", [ { Fault.out_from = 0; out_until = 10_000 } ]);
    ];
  Table.print table;
  note
    "with the global detector out, cross-site deadlocks are invisible;\n\
     the engine degrades to timeout-aborting long-blocked transactions —\n\
     the crude baseline the paper improves on, now serving as the\n\
     fallback that keeps the system live until detection returns."

(* chaos summary: randomized plans, both engines, every invariant *)
let chaos_summary () =
  let seeds = scale 20 in
  let reports = Chaos.sweep ~seeds () in
  let table =
    Table.create
      ~title:(Printf.sprintf "chaos harness (%d seeds x 2 engines)" seeds)
      [
        ("engine", Table.Left);
        ("runs", Table.Right);
        ("clean", Table.Right);
        ("faults seen", Table.Right);
        ("commits", Table.Right);
      ]
  in
  List.iter
    (fun (engine, label) ->
      let rs = List.filter (fun r -> r.Chaos.engine = engine) reports in
      let clean =
        List.length (List.filter (fun r -> r.Chaos.violations = []) rs)
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
      Table.add_row table
        [
          label;
          i (List.length rs);
          i clean;
          i (sum (fun r -> r.Chaos.faults_seen));
          i (sum (fun r -> r.Chaos.commits));
        ])
    [ (Chaos.Centralized, "centralized"); (Chaos.Distributed, "distributed") ];
  Table.print table;
  (match Chaos.failures reports with
  | [] -> ()
  | bad ->
      List.iter (fun r -> Fmt.pr "CHAOS FAILURE: %a@." Chaos.pp_report r) bad);
  note
    "each run checks serializability, store-sum conservation, no orphaned\n\
     locks, no stuck transactions, and bit-for-bit replay determinism."

let run () =
  header "E12 / DESIGN 7" "fault injection and recovery";
  let n_txns = scale 80 in
  message_faults n_txns;
  site_crashes n_txns;
  detector_outage (scale 60);
  chaos_summary ()
