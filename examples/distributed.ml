(* Multi-site execution (paper Section 3.3): the same workload run under
   periodic global detection and under wound-wait prevention, comparing
   messages, bookkeeping shipping and lost progress for total vs. partial
   rollback.

   Run with:  dune exec examples/distributed.exe
*)

module Generator = Prb_workload.Generator
module Strategy = Prb_rollback.Strategy
module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim
module Table = Prb_util.Table

let () =
  let params =
    {
      Generator.default_params with
      n_entities = 40;
      zipf_theta = 0.6;
      max_locks = 5;
    }
  in
  let n_txns = 80 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "4 sites, %d transactions, detection every 40 ticks"
           n_txns)
      [
        ("detection", Table.Left);
        ("strategy", Table.Left);
        ("commits", Table.Right);
        ("deadlocks (l/g)", Table.Right);
        ("wounds", Table.Right);
        ("ops lost", Table.Right);
        ("messages", Table.Right);
        ("shipped copies", Table.Right);
      ]
  in
  List.iter
    (fun (detection, dname) ->
      List.iter
        (fun strategy ->
          let store = Generator.populate params in
          let programs = Generator.generate params ~seed:3 ~n:n_txns in
          let config =
            {
              Dist_sim.scheduler =
                {
                  D.default_config with
                  n_sites = 4;
                  detection;
                  strategy;
                  seed = 3;
                  max_ticks = 300_000;
                };
              mpl = 10;
            }
          in
          let r = Dist_sim.run ~config ~store programs in
          let s = r.Dist_sim.stats in
          assert r.Dist_sim.serializable;
          Table.add_row table
            [
              dname;
              Strategy.to_string strategy;
              Table.cell_int s.D.commits;
              Printf.sprintf "%d (%d/%d)" s.D.deadlocks s.D.local_deadlocks
                s.D.global_deadlocks;
              Table.cell_int s.D.preventions;
              Table.cell_int s.D.ops_lost;
              Table.cell_int s.D.messages;
              Table.cell_int s.D.shipped_copies;
            ])
        Strategy.all_basic;
      Table.add_separator table)
    [ (D.Local_then_global 40, "local+global"); (D.Wound_wait, "wound-wait") ];
  Table.print table;
  print_endline
    "Partial rollback keeps its advantage across sites (ops lost), but a\n\
     moving transaction's version bookkeeping must follow it (shipped\n\
     copies) - the communication overhead Section 3.3 warns about; total\n\
     rollback ships nothing."
