(* E1-E5: the paper's five figures, regenerated (DESIGN.md Section 5). *)

open Common
module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Lock_mode = Prb_txn.Lock_mode
module Txn_state = Prb_rollback.Txn_state
module Sdg_view = Prb_rollback.Sdg_view
module Waits_for = Prb_wfg.Waits_for
module Lock_table = Prb_lock.Lock_table
module Resolver = Prb_core.Resolver
module Cutset = Prb_graph.Cutset
module Rng = Prb_util.Rng

let advance ts ~stop_pc =
  while Txn_state.pc ts < stop_pc do
    match Txn_state.next_action ts with
    | Txn_state.Need_lock _ -> Txn_state.lock_granted ts
    | Txn_state.Data_step -> Txn_state.exec_data_op ts
    | Txn_state.Need_unlock -> ignore (Txn_state.perform_unlock ts)
    | Txn_state.At_end -> failwith "advance: past end"
  done

let filler = Program.assign "v" Expr.(Mix (var "v"))

let program_with_locks ~name ~length locks =
  Program.make ~name
    ~locals:[ ("v", Value.int 0) ]
    (List.init length (fun pc ->
         match List.assoc_opt pc locks with
         | Some e -> Program.lock_x e
         | None -> filler))

(* The waits-for graph as the paper draws it, one arc per line. *)
let show_graph title wfg =
  note "%s (waiter -entity-> holder):" title;
  List.iter
    (fun (w, h, e) -> note "  T%d -%s-> T%d" w e h)
    (Waits_for.edges wfg)

(* --- E1: Figure 1 ------------------------------------------------------ *)

let fig1 () =
  header "E1 / Figure 1" "optimal rollback choice under exclusive locks";
  let store =
    Store.of_list (List.map (fun e -> (e, Value.int 0)) [ "a"; "b"; "c"; "e" ])
  in
  let mk id p = Txn_state.create ~strategy:Prb_rollback.Strategy.Mcs ~id ~store p in
  let ts2 =
    mk 2 (program_with_locks ~name:"T2" ~length:16 [ (8, "b"); (10, "a"); (12, "e") ])
  in
  let ts3 = mk 3 (program_with_locks ~name:"T3" ~length:16 [ (5, "c"); (11, "b") ]) in
  let ts4 = mk 4 (program_with_locks ~name:"T4" ~length:16 [ (10, "e"); (15, "c") ]) in
  advance ts2 ~stop_pc:12;
  advance ts3 ~stop_pc:11;
  advance ts4 ~stop_pc:15;
  (* T1 requests a, which T2 locked after b. *)
  let wfg = Waits_for.create () in
  List.iter (Waits_for.add_txn wfg) [ 1; 2; 3; 4 ];
  Waits_for.set_wait wfg ~waiter:1 ~holders:[ 2 ] "a";
  Waits_for.set_wait wfg ~waiter:2 ~holders:[ 4 ] "e";
  Waits_for.set_wait wfg ~waiter:3 ~holders:[ 2 ] "b";
  Waits_for.set_wait wfg ~waiter:4 ~holders:[ 3 ] "c";
  show_graph "Figure 1(a) concurrency graph" wfg;
  let table =
    Table.create
      ~title:"cycle T2 -e-> T4 -c-> T3 -b-> T2 (waiter -entity-> holder)"
      [
        ("candidate", Table.Left);
        ("releases", Table.Left);
        ("waiting since state", Table.Right);
        ("entity locked at state", Table.Right);
        ("rollback cost", Table.Right);
        ("paper", Table.Right);
      ]
  in
  let states = [ (2, ts2, "b"); (3, ts3, "c"); (4, ts4, "e") ] in
  List.iter
    (fun (id, ts, e) ->
      Table.add_row table
        [
          Printf.sprintf "T%d" id;
          e;
          i (Txn_state.pc ts);
          i (Txn_state.pc ts - Txn_state.cost_to_release ts e);
          i (Txn_state.cost_to_release ts e);
          i (match id with 2 -> 4 | 3 -> 6 | _ -> 5);
        ])
    states;
  Table.print table;
  let decision =
    Resolver.choose ~policy:Prb_core.Policy.Min_cost ~requester:2
      ~entry_order:Fun.id
      ~release_cost:(fun v es ->
        let _, ts, _ = List.find (fun (id, _, _) -> id = v) states in
        List.fold_left (fun acc e -> max acc (Txn_state.cost_to_release ts e)) 0 es)
      ~rng:(Rng.make 1)
      [ [ (4, "e"); (3, "c"); (2, "b") ] ]
  in
  (match decision.Resolver.victims with
  | [ (v, es) ] ->
      note "victim: T%d releases %s (paper: T2 releases b)" v (String.concat "," es);
      (* As the engine's rollback does: the victim first abandons its
         pending request on e, then rolls back to before its lock on b. *)
      Waits_for.clear_wait wfg 2;
      let released = Txn_state.rollback_to ts2 (Txn_state.rollback_target ts2 "b") in
      note "rollback of T2 also released %s -> T1 no longer waits (Figure 1b)"
        (String.concat ","
           (List.sort compare (List.map (Store.name store) released)));
      (* b goes to T3 and a to T1. *)
      Waits_for.clear_wait wfg 3;
      Waits_for.clear_wait wfg 1;
      show_graph "Figure 1(b) graph after the rollback" wfg
  | _ -> assert false)

(* --- E2: Figure 2 ------------------------------------------------------ *)

let fig2 () =
  header "E2 / Figure 2" "potentially infinite mutual preemption";
  let cycles = [ [ (2, "f"); (3, "b") ] ] in
  let cost v _ = if v = 2 then 2 else 9 in
  let victims policy =
    (Resolver.choose ~policy ~requester:3 ~entry_order:Fun.id
       ~release_cost:cost ~rng:(Rng.make 1) cycles)
      .Resolver.victims
  in
  let show name vs =
    note "%-22s -> %s" name
      (String.concat "; "
         (List.map (fun (v, es) -> Printf.sprintf "T%d releases {%s}" v
                        (String.concat "," es)) vs))
  in
  show "min-cost (unsafe)" (victims Prb_core.Policy.Min_cost);
  show "ordered (Theorem 2)" (victims Prb_core.Policy.Ordered_min_cost);
  (* dynamic: the livelock made measurable *)
  let params =
    {
      Generator.default_params with
      n_entities = 16;
      zipf_theta = 0.9;
      max_locks = 8;
      read_fraction = 0.0;
    }
  in
  let n_txns = scale 120 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "hot exclusive workload, mcs rollback, %d txns, 60k-tick budget"
           n_txns)
      [
        ("policy", Table.Left);
        ("commits", Table.Right);
        ("deadlocks", Table.Right);
        ("ops lost", Table.Right);
        ("outcome", Table.Left);
      ]
  in
  List.iter
    (fun policy ->
      let r =
        run_sim ~mpl:10 ~seed:42 ~policy ~max_ticks:60_000
          ~strategy:Prb_rollback.Strategy.Mcs ~params ~n_txns ()
      in
      let s = r.Sim.stats in
      Table.add_row table
        [
          Prb_core.Policy.to_string policy;
          i s.Scheduler.commits;
          i s.Scheduler.deadlocks;
          i s.Scheduler.ops_lost;
          (if s.Scheduler.commits = n_txns then "completed"
           else "LIVELOCK (budget exhausted)");
        ])
    [ Prb_core.Policy.Min_cost; Prb_core.Policy.Ordered_min_cost;
      Prb_core.Policy.Youngest ];
  Table.print table;
  note
    "paper: unconstrained optimisation risks repeating the same preemption\n\
     forever; a time-invariant order (Theorem 2) removes the risk."

(* --- E3: Figure 3 ------------------------------------------------------ *)

let fig3 () =
  header "E3 / Figure 3" "shared locks: multi-cycle deadlocks and cut sets";
  let store = Store.create () in
  let locks = Lock_table.create ~fair:false store in
  let wfg = Waits_for.create () in
  List.iter (Waits_for.add_txn wfg) [ 1; 2; 3 ];
  let must_grant id mode e =
    match Lock_table.request locks id mode (Store.id store e) with
    | Lock_table.Granted -> ()
    | Lock_table.Blocked _ -> assert false
  in
  must_grant 1 Lock_mode.Exclusive "a";
  must_grant 1 Lock_mode.Exclusive "b";
  must_grant 2 Lock_mode.Shared "f";
  must_grant 3 Lock_mode.Shared "f";
  let block id e =
    match Lock_table.request locks id Lock_mode.Exclusive (Store.id store e) with
    | Lock_table.Blocked holders -> Waits_for.set_wait wfg ~waiter:id ~holders e
    | Lock_table.Granted -> assert false
  in
  block 2 "a";
  block 3 "b";
  block 1 "f";
  note "T1 requests X(f); conflicting holders: %s (Type %s conflict)"
    (String.concat ", "
       (List.map (Printf.sprintf "T%d") (Lock_table.blockers locks 1)))
    (match
       Lock_table.classify locks 1 Lock_mode.Exclusive (Store.id store "f")
     with
    | Lock_table.Type2 -> "2"
    | Lock_table.Type1 -> "1"
    | Lock_table.No_conflict -> "none");
  show_graph "Figure 3(c) concurrency graph" wfg;
  let cycles = Waits_for.cycles_through wfg 1 in
  note "T1's X(f) request vs two shared holders: %d cycles close at once"
    (List.length cycles);
  let table =
    Table.create
      [
        ("cost assignment", Table.Left);
        ("optimal cut", Table.Left);
        ("cut cost", Table.Right);
        ("greedy cut", Table.Left);
        ("greedy cost", Table.Right);
      ]
  in
  let row name cost =
    let inst = { Cutset.cycles; cost } in
    let show cut =
      String.concat "," (List.map (Printf.sprintf "T%d") cut)
    in
    match Cutset.exact inst with
    | Some cut ->
        let g = Cutset.greedy inst in
        Table.add_row table
          [
            name;
            show cut;
            f2 (Cutset.total_cost inst cut);
            show g;
            f2 (Cutset.total_cost inst g);
          ]
    | None -> assert false
  in
  row "uniform (1,1,1)" (fun _ -> 1.0);
  row "T1 expensive (5,1,1)" (fun v -> if v = 1 then 5.0 else 1.0);
  row "T2 cheap (2,1,3)" (fun v -> if v = 1 then 2.0 else if v = 2 then 1.0 else 3.0);
  Table.print table;
  (* exact vs greedy at scale: random instances *)
  let rng = Rng.make 99 in
  let n_inst = scale 400 in
  let worst = ref 1.0 and sum = ref 0.0 and exactly = ref 0 in
  for _ = 1 to n_inst do
    let n_cycles = 1 + Rng.int rng 4 in
    let cycles =
      List.init n_cycles (fun _ ->
          List.init (1 + Rng.int rng 3) (fun _ -> (Rng.int rng 7, "e")))
    in
    let inst =
      {
        Cutset.cycles = List.map (List.map fst) cycles;
        cost = (fun v -> 1.0 +. float_of_int (v mod 4));
      }
    in
    match Cutset.exact inst with
    | Some cut ->
        let copt = Cutset.total_cost inst cut in
        let cg = Cutset.total_cost inst (Cutset.greedy inst) in
        let ratio = if copt = 0.0 then 1.0 else cg /. copt in
        if ratio <= 1.0 +. 1e-9 then incr exactly;
        if ratio > !worst then worst := ratio;
        sum := !sum +. ratio
    | None -> ()
  done;
  note
    "NP-hard optimisation (Section 3.2): over %d random multi-cycle\n\
     instances the greedy heuristic matched the exact minimum-cost cut\n\
     %.1f%% of the time (mean ratio %.3f, worst %.2f)."
    n_inst
    (100.0 *. float_of_int !exactly /. float_of_int n_inst)
    (!sum /. float_of_int n_inst)
    !worst

(* --- E4: Figure 4 ------------------------------------------------------ *)

let fig4_txn ~with_ck =
  let ops =
    [
      Program.lock_x "A";
      Program.write "A" Expr.(int 1);
      Program.lock_x "B";
      filler;
      Program.lock_x "C";
      Program.write "A" Expr.(int 2);
      Program.lock_x "D";
      Program.write "A" Expr.(int 3);
    ]
    @ (if with_ck then [ Program.assign "c" Expr.(int 7) ] else [])
    @ [
        Program.lock_x "E";
        Program.write "B" Expr.(int 4);
        Program.lock_x "F";
        Program.write "B" Expr.(int 5);
        (if with_ck then Program.assign "c" Expr.(int 8)
         else Program.assign "w" Expr.(int 9));
      ]
  in
  Program.make
    ~name:(if with_ck then "T1" else "T1'")
    ~locals:[ ("v", Value.int 0); ("c", Value.int 0); ("w", Value.int 0) ]
    ops

let fig4 () =
  header "E4 / Figure 4" "state-dependency graphs and well-defined states";
  let table =
    Table.create
      [
        ("transaction", Table.Left);
        ("damage intervals", Table.Left);
        ("well-defined states", Table.Left);
        ("paper", Table.Left);
      ]
  in
  let show p paper =
    let fmt_intervals l =
      String.concat ", "
        (List.map (fun (a, b) -> Printf.sprintf "[%d,%d)" a b) l)
    in
    let fmt_states l = String.concat "," (List.map string_of_int l) in
    Table.add_row table
      [
        p.Program.name;
        fmt_intervals (Sdg_view.damage_intervals p);
        fmt_states (Sdg_view.well_defined_states p);
        paper;
      ]
  in
  List.iter
    (fun p ->
      note "%s: SDG edges %s" p.Program.name
        (String.concat ", "
           (List.map
              (fun (a, b) -> Printf.sprintf "%d-%d" a b)
              (Prb_graph.Ugraph.edges (Sdg_view.of_program p)))))
    [ fig4_txn ~with_ck:true; fig4_txn ~with_ck:false ];
  show (fig4_txn ~with_ck:true) "only the trivial 0 and 6";
  show (fig4_txn ~with_ck:false) "lock state 4 becomes well-defined";
  Table.print table;
  note
    "Theorem 4 check: the articulation-point computation agrees on both: %b"
    (List.for_all
       (fun ck ->
         let p = fig4_txn ~with_ck:ck in
         Sdg_view.well_defined_states p = Sdg_view.well_defined_via_articulation p)
       [ true; false ])

(* --- E5: Figure 5 ------------------------------------------------------ *)

let fig5 () =
  header "E5 / Figure 5" "write clustering preserves well-defined states";
  let t1 = fig4_txn ~with_ck:true in
  let t2 = Program.cluster_writes t1 in
  let wd p = List.length (Sdg_view.well_defined_states p) in
  let table =
    Table.create
      [
        ("transaction", Table.Left);
        ("damage span", Table.Right);
        ("well-defined", Table.Right);
        ("of states", Table.Right);
      ]
  in
  Table.add_row table [ "T1 (scattered writes)"; i (Program.damage_span t1);
                        i (wd t1); i (Program.n_locks t1 + 1) ];
  Table.add_row table [ "T2 (same ops, clustered)"; i (Program.damage_span t2);
                        i (wd t2); i (Program.n_locks t2 + 1) ];
  Table.print table;
  (* workload-level sweep: clustering knob vs static and dynamic damage *)
  let n_txns = scale 120 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "generated workloads (2-3 writes/entity, %d txns, sdg rollback)"
           n_txns)
      [
        ("clustering", Table.Right);
        ("well-defined fraction", Table.Right);
        ("mean overshoot (lock states)", Table.Right);
        ("overshoot ops (dynamic)", Table.Right);
        ("ops lost (dynamic)", Table.Right);
      ]
  in
  List.iter
    (fun clustering ->
      let params =
        {
          Generator.default_params with
          n_entities = 24;
          zipf_theta = 0.8;
          min_writes = 2;
          max_writes = 3;
          max_locks = 7;
          clustering;
        }
      in
      let programs = Generator.generate params ~seed:5 ~n:n_txns in
      let wd_frac =
        let wd, states =
          List.fold_left
            (fun (w, s) p ->
              ( w + List.length (Sdg_view.well_defined_states p),
                s + Program.n_locks p + 1 ))
            (0, 0) programs
        in
        float_of_int wd /. float_of_int states
      in
      let overshoot =
        let total, count =
          List.fold_left
            (fun (t, c) p ->
              Array.fold_left
                (fun (t, c) op ->
                  match op with
                  | Program.Lock (_, e) -> (
                      match Sdg_view.rollback_overshoot p e with
                      | Some d -> (t + d, c + 1)
                      | None -> (t, c))
                  | _ -> (t, c))
                (t, c) p.Program.ops)
            (0, 0) programs
        in
        float_of_int total /. float_of_int (max 1 count)
      in
      let r =
        run_sim ~mpl:10 ~seed:5 ~strategy:Prb_rollback.Strategy.Sdg ~params
          ~n_txns ()
      in
      Table.add_row table
        [
          f2 clustering;
          pct wd_frac;
          f2 overshoot;
          i r.Sim.stats.Scheduler.overshoot_ops;
          i r.Sim.stats.Scheduler.ops_lost;
        ])
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  Table.print table;
  note
    "paper: \"as few lock states as possible between successive write\n\
     operations\" maximises well-defined states; the sweep shows the\n\
     single-copy implementation recovering MCS-like precision as writes\n\
     cluster."

let run () =
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ()
