(* TPC-C-flavoured order entry: new-order transactions hammer their
   district counters and the warehouse totals while read-only stock-level
   checks take shared locks across many entries. Compares the rollback
   strategies where it matters — a deadlock on the warehouse total hits a
   transaction near the END of its work, which is exactly where partial
   rollback saves the most.

   Run with:  dune exec examples/orderentry.exe
*)

module Scenarios = Prb_workload.Scenarios
module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Strategy = Prb_rollback.Strategy
module Scheduler = Prb_core.Scheduler
module Sim = Prb_sim.Sim
module Rng = Prb_util.Rng
module Table = Prb_util.Table

let n_warehouses = 2
let districts = 4
let items = 20
let initial_stock = 100_000
let n_txns = 120

let workload seed =
  let rng = Rng.make seed in
  List.init n_txns (fun i ->
      let warehouse = Rng.int rng n_warehouses in
      if Rng.chance rng 0.75 then
        let n_lines = 2 + Rng.int rng 4 in
        let seen = Hashtbl.create 8 in
        let lines =
          List.filter_map
            (fun _ ->
              let item = Rng.int rng items in
              if Hashtbl.mem seen item then None
              else begin
                Hashtbl.replace seen item ();
                Some (item, 1 + Rng.int rng 5)
              end)
            (List.init n_lines Fun.id)
        in
        Scenarios.new_order
          ~name:(Printf.sprintf "neworder%04d" i)
          ~warehouse
          ~district:(Rng.int rng districts)
          ~lines
      else
        Scenarios.stock_level
          ~name:(Printf.sprintf "stocklvl%04d" i)
          ~warehouse
          ~items:
            (List.init (3 + Rng.int rng 5) (fun k ->
                 (k * 3 mod items)) |> List.sort_uniq compare))

let () =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "order entry: %d warehouses x %d districts, %d txns, mpl 12"
           n_warehouses districts n_txns)
      [
        ("strategy", Table.Left);
        ("commits", Table.Right);
        ("deadlocks", Table.Right);
        ("rollbacks", Table.Right);
        ("ops lost", Table.Right);
        ("overshoot", Table.Right);
        ("mean cost", Table.Right);
        ("peak copies", Table.Right);
      ]
  in
  List.iter
    (fun strategy ->
      let store =
        Scenarios.order_entry_store ~n_warehouses
          ~districts_per_warehouse:districts ~items_per_warehouse:items
          ~stock:initial_stock
      in
      let config =
        {
          Sim.scheduler = { Scheduler.default_config with strategy; seed = 9 };
          mpl = 12;
        }
      in
      let r = Sim.run ~config ~store (workload 9) in
      let s = r.Sim.stats in
      assert r.Sim.serializable;
      Table.add_row table
        [
          Strategy.to_string strategy;
          Table.cell_int s.Scheduler.commits;
          Table.cell_int s.Scheduler.deadlocks;
          Table.cell_int s.Scheduler.rollbacks;
          Table.cell_int s.Scheduler.ops_lost;
          Table.cell_int s.Scheduler.overshoot_ops;
          Table.cell_float r.Sim.mean_rollback_cost;
          Table.cell_int r.Sim.stats.peak_copies;
        ])
    (Strategy.all_basic @ [ Strategy.Sdg_k 2 ]);
  Table.print table;
  print_endline
    "New-order transactions end at the hot warehouse total: a deadlock\n\
     there costs a restart its whole order, while partial rollback only\n\
     repeats the last lock step. Every stock entry is written once,\n\
     right after its lock (Figure 5's clustered structure), so entities\n\
     cause no overshoot - what overshoot SDG shows comes from the\n\
     reused `stock' register, a local variable rewritten in every line's\n\
     segment, exactly the paper's C := K effect; two extra copies\n\
     (sdg+2) all but erase it."
