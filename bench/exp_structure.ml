(* E9: three-phase (acquire/update/release) transaction structure. *)

open Common
module Txn_state = Prb_rollback.Txn_state
module Scheduler = Prb_core.Scheduler

let three_phase () =
  header "E9 / Section 5" "three-phase transaction structure";
  let n_txns = scale 150 in
  let base =
    {
      Generator.default_params with
      n_entities = 24;
      zipf_theta = 0.8;
      max_locks = 6;
      min_writes = 2;
      max_writes = 3;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "%d txns, sdg rollback, mpl 10 — structure ablation"
           n_txns)
      [
        ("structure", Table.Left);
        ("deadlocks", Table.Right);
        ("ops lost", Table.Right);
        ("overshoot", Table.Right);
        ("mean cost", Table.Right);
        ("monitored writes", Table.Right);
        ("throughput", Table.Right);
      ]
  in
  List.iter
    (fun (name, params, transform) ->
      let store = Generator.populate params in
      let programs =
        List.map transform (Generator.generate params ~seed:6 ~n:n_txns)
      in
      (* keep the scheduler so the per-transaction monitored write
         counters stay inspectable after the run *)
      let sched =
        Scheduler.create ~config:{ Scheduler.default_config with seed = 6 }
          store
      in
      let e = Sim.central sched in
      Sim.drive e ~mpl:10 programs;
      let r = Sim.result e programs in
      let s = r.Sim.stats in
      let monitored =
        List.fold_left
          (fun acc id ->
            acc + Txn_state.monitored_writes (Scheduler.txn_state sched id))
          0 (Scheduler.all_txns sched)
      in
      Table.add_row table
        [
          name;
          i s.Scheduler.deadlocks;
          i s.Scheduler.ops_lost;
          i s.Scheduler.overshoot_ops;
          f2 r.Sim.mean_rollback_cost;
          i monitored;
          f2 r.Sim.throughput;
        ])
    [
      ("scattered writes", { base with clustering = 0.0 }, Fun.id);
      ("clustered writes", { base with clustering = 1.0 }, Fun.id);
      ("three-phase", { base with three_phase = true }, Fun.id);
      ( "restructured (hoist+sink)",
        { base with clustering = 0.0 },
        Prb_txn.Program.make_acquire_update_release );
    ];
  Table.print table;
  note
    "three-phase transactions perform no writes before their last lock:\n\
     nothing to monitor and nothing a rollback can destroy beyond the\n\
     minimum — the paper's prescription for rollback-friendly programs.\n\
     The last row applies the library's compile-time restructuring\n\
     (Section 5's closing suggestion) to the scattered workload."

let run () = three_phase ()
