(* E6 (Theorem 3 storage accounting) and E11 (the SDG+k extension). *)

open Common
module Txn_state = Prb_rollback.Txn_state
module Program = Prb_txn.Program

(* Peak local copies per transaction, measured by running a contended
   workload and taking the maximum over transactions; compared against
   Theorem 3's n(n+1)/2 worst case (n = locks held). *)
let thm3 () =
  header "E6 / Theorem 3" "storage: measured peak copies vs. the bound";
  let n_txns = scale 150 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "write-heavy workload (3-4 writes per entity, %d txns, mpl 8)"
           n_txns)
      [
        ("locks/txn", Table.Right);
        ("bound n(n+1)/2 + 3n", Table.Right);
        ("mcs peak", Table.Right);
        ("sdg peak", Table.Right);
        ("total peak", Table.Right);
      ]
  in
  List.iter
    (fun n_locks ->
      let params =
        {
          Generator.default_params with
          n_entities = 48;
          min_locks = n_locks;
          max_locks = n_locks;
          min_writes = 3;
          max_writes = 4;
          clustering = 0.0;
          zipf_theta = 0.4;
        }
      in
      let peak strategy =
        (run_sim ~strategy ~params ~n_txns ~seed:2 ()).Sim.stats.peak_copies
      in
      (* the bound counts copies of globals only; our accounting adds one
         saved initial per locked entity (n more) and the four registers'
         histories, reported as-is for transparency *)
      Table.add_row table
        [
          i n_locks;
          i ((n_locks * (n_locks + 1) / 2) + n_locks);
          i (peak Strategy.Mcs);
          i (peak Strategy.Sdg);
          i (peak Strategy.Total);
        ])
    [ 2; 4; 6; 8 ];
  Table.print table;
  note
    "shape: MCS grows ~quadratically towards the Theorem 3 envelope while\n\
     the single-copy implementations stay linear in the locks held."

let sdg_k () =
  header "E11 / Section 5 extension" "SDG with k extra copies per object";
  let n_txns = scale 150 in
  let params =
    {
      Generator.default_params with
      n_entities = 24;
      zipf_theta = 0.8;
      min_writes = 2;
      max_writes = 3;
      max_locks = 7;
      clustering = 0.0;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "storage -> precision frontier (%d txns, mpl 10)"
           n_txns)
      [
        ("strategy", Table.Left);
        ("peak copies", Table.Right);
        ("rollbacks", Table.Right);
        ("ops lost", Table.Right);
        ("mean rollback cost", Table.Right);
      ]
  in
  List.iter
    (fun strategy ->
      let r = run_sim ~mpl:10 ~seed:7 ~strategy ~params ~n_txns () in
      let s = r.Sim.stats in
      Table.add_row table
        [
          Strategy.to_string strategy;
          i s.Scheduler.peak_copies;
          i s.Scheduler.rollbacks;
          i s.Scheduler.ops_lost;
          f2 r.Sim.mean_rollback_cost;
        ])
    [ Strategy.Sdg; Strategy.Sdg_k 1; Strategy.Sdg_k 2; Strategy.Sdg_k 4;
      Strategy.Mcs ];
  Table.print table;
  note
    "the paper's closing question: each extra retained copy buys back\n\
     rollback precision; a small k already approaches MCS behaviour at a\n\
     fraction of its worst-case space."

(* E11b: the paper's closing question answered — allocate a bounded
   number of extra copies across objects (greedy marginal-gain optimiser)
   instead of uniformly. *)
let allocation () =
  header "E11b / Section 5 open question" "optimised copy allocation vs uniform";
  let module Program = Prb_txn.Program in
  let module Allocation = Prb_rollback.Allocation in
  let module Sdg_view = Prb_rollback.Sdg_view in
  let module Scheduler = Prb_core.Scheduler in
  let n_txns = scale 150 in
  let params =
    {
      Generator.default_params with
      n_entities = 24;
      zipf_theta = 0.8;
      min_writes = 2;
      max_writes = 3;
      max_locks = 7;
      clustering = 0.0;
    }
  in
  let programs = Generator.generate params ~seed:7 ~n:n_txns in
  let wd_fraction allocate =
    let wd, states =
      List.fold_left
        (fun (w, s) p ->
          let alloc = allocate p in
          ( w
            + List.length
                (Allocation.well_defined_with p
                   ~allocation:(Allocation.lookup alloc)),
            s + Program.n_locks p + 1 ))
        (0, 0) programs
    in
    float_of_int wd /. float_of_int states
  in
  let mean_spend allocate =
    let total =
      List.fold_left
        (fun acc p ->
          acc + List.fold_left (fun a (_, e) -> a + e) 0 (allocate p))
        0 programs
    in
    float_of_int total /. float_of_int (List.length programs)
  in
  let uniform k p =
    (* k extra copies for every damage-capable object *)
    List.map (fun (key, _) -> (key, k)) (Allocation.chunks p)
  in
  let dynamic allocate =
    let sched =
      Scheduler.create ~config:{ Scheduler.default_config with seed = 7 }
        (Generator.populate params)
    in
    let submit p =
      Scheduler.submit ~copy_allocation:(Allocation.lookup (allocate p)) sched
        p
    in
    Sim.drive { (Sim.central sched) with submit } ~mpl:10 programs;
    Scheduler.stats sched
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "scattered-write workload, %d txns, sdg rollback + extra copies"
           n_txns)
      [
        ("allocation scheme", Table.Left);
        ("mean extra copies/txn", Table.Right);
        ("well-defined fraction", Table.Right);
        ("overshoot ops (dynamic)", Table.Right);
        ("ops lost (dynamic)", Table.Right);
      ]
  in
  List.iter
    (fun (name, allocate) ->
      let s = dynamic allocate in
      Table.add_row table
        [
          name;
          f2 (mean_spend allocate);
          pct (wd_fraction allocate);
          i s.Scheduler.overshoot_ops;
          i s.Scheduler.ops_lost;
        ])
    [
      ("none (plain sdg)", fun _ -> []);
      ("uniform +1 per object", uniform 1);
      ("optimised, budget 2", fun p -> Allocation.greedy p ~budget:2);
      ("optimised, budget 4", fun p -> Allocation.greedy p ~budget:4);
    ];
  Table.print table;
  note
    "the greedy optimiser concentrates copies on the chunks that free the\n\
     most states: a budget of ~2 copies per transaction recovers most of\n\
     what uniform funding buys with several times the storage — an answer\n\
     to the paper's closing question.";
  (* greedy vs exhaustive quality, where the exhaustive search is feasible *)
  let sample = List.filteri (fun i _ -> i < scale 60) programs in
  let matches, total =
    List.fold_left
      (fun (m, t) p ->
        let g = Allocation.gain p (Allocation.greedy p ~budget:3) in
        let e = Allocation.gain p (Allocation.exact p ~budget:3) in
        ((if g = e then m + 1 else m), t + 1))
      (0, 0) sample
  in
  note "greedy matched the exhaustive optimum on %d/%d programs (budget 3)."
    matches total

let run () =
  thm3 ();
  sdg_k ();
  allocation ()
