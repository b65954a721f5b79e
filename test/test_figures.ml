(* Exact reproduction tests for the paper's five figures (experiment ids
   E1-E5 in DESIGN.md). Each asserts the published configuration:
   Figure 1's costs 4/6/5 and victim T2, Figure 3's alternative cuts,
   Figure 4's well-defined sets {0,6} vs {0,4,6}, Figure 5's clustering
   gain. *)

module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Lock_mode = Prb_txn.Lock_mode
module Strategy = Prb_rollback.Strategy
module Txn_state = Prb_rollback.Txn_state
module Sdg_view = Prb_rollback.Sdg_view
module Waits_for = Prb_wfg.Waits_for
module Lock_table = Prb_lock.Lock_table
module Resolver = Prb_core.Resolver
module Policy = Prb_core.Policy
module Cutset = Prb_graph.Cutset
module Rng = Prb_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkil = Alcotest.(check (list int))

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

(* --- Figure 1 --------------------------------------------------------- *)

(* Shared by every Figure 1 state: they read it, never write it. *)
let fig1_store =
  Store.of_list (List.map (fun e -> (e, Value.int 0)) [ "a"; "b"; "c"; "e" ])

let fig1_states () =
  let mk id program =
    Txn_state.create ~strategy:Strategy.Mcs ~id ~store:fig1_store program
  in
  let ts2 =
    mk 2 (program_with_locks ~name:"T2" ~length:16 [ (8, "b"); (10, "a"); (12, "e") ])
  in
  let ts3 = mk 3 (program_with_locks ~name:"T3" ~length:16 [ (5, "c"); (11, "b") ]) in
  let ts4 = mk 4 (program_with_locks ~name:"T4" ~length:16 [ (10, "e"); (15, "c") ]) in
  advance ts2 ~stop_pc:12;
  advance ts3 ~stop_pc:11;
  advance ts4 ~stop_pc:15;
  (ts2, ts3, ts4)

let test_fig1_costs () =
  let ts2, ts3, ts4 = fig1_states () in
  checki "T2: 12 - 8 = 4" 4 (Txn_state.cost_to_release ts2 "b");
  checki "T3: 11 - 5 = 6" 6 (Txn_state.cost_to_release ts3 "c");
  checki "T4: 15 - 10 = 5" 5 (Txn_state.cost_to_release ts4 "e")

let test_fig1_victim_choice () =
  let ts2, ts3, ts4 = fig1_states () in
  let states = [ (2, ts2); (3, ts3); (4, ts4) ] in
  let cycles = [ [ (4, "e"); (3, "c"); (2, "b") ] ] in
  let decision =
    Resolver.choose ~policy:Policy.Min_cost ~requester:2
      ~entry_order:Fun.id
      ~release_cost:(fun v es ->
        let ts = List.assoc v states in
        List.fold_left
          (fun acc e -> max acc (Txn_state.cost_to_release ts e))
          0 es)
      ~rng:(Rng.make 1) cycles
  in
  checkb "T2 chosen, releasing b" true
    (decision.Resolver.victims = [ (2, [ "b" ]) ]);
  checkb "optimal" true decision.Resolver.optimal

let test_fig1_rollback_frees_a () =
  (* T2 locked a after b, so rolling T2 back to release b also releases a
     — the paper's "T1 no longer waits for T2". *)
  let ts2, _, _ = fig1_states () in
  let target = Txn_state.rollback_target ts2 "b" in
  let released =
    List.map (Store.name fig1_store) (Txn_state.rollback_to ts2 target)
  in
  checkb "a and b released" true (List.sort compare released = [ "a"; "b" ]);
  checki "T2 resumes at its 8th state" 8 (Txn_state.pc ts2);
  checkb "e was never held" true (Txn_state.holds ts2 "e" = None);
  (* Back before its first lock, T2 waits for nothing: Figure 1(b) has
     no arc out of T2. *)
  checkb "T2 next asks for b again" true
    (Txn_state.next_action ts2 = Txn_state.Need_lock Lock_mode.Exclusive
    && Store.name fig1_store (Txn_state.next_lock_id ts2) = "b")

let test_fig1_graph_is_single_cycle () =
  let wfg = Waits_for.create () in
  List.iter (Waits_for.add_txn wfg) [ 1; 2; 3; 4 ];
  Waits_for.set_wait wfg ~waiter:2 ~holders:[ 4 ] "e";
  Waits_for.set_wait wfg ~waiter:3 ~holders:[ 2 ] "b";
  Waits_for.set_wait wfg ~waiter:4 ~holders:[ 3 ] "c";
  Waits_for.set_wait wfg ~waiter:1 ~holders:[ 2 ] "a";
  checki "one cycle through T2" 1 (List.length (Waits_for.cycles_through wfg 2));
  checkb "forest plus one cycle shape" false (Waits_for.is_exclusive_forest wfg);
  Waits_for.clear_wait wfg 2;
  checkb "removing T2's wait restores the forest" true
    (Waits_for.is_exclusive_forest wfg)

(* --- Figure 2 --------------------------------------------------------- *)

let test_fig2_policies_differ () =
  (* One deadlock, two doctrines: pure min-cost sacrifices the cheap old
     transaction; Theorem 2's ordering spares it. *)
  let cycles = [ [ (2, "f"); (3, "b") ] ] in
  let cost v _ = if v = 2 then 2 else 9 in
  let run policy =
    (Resolver.choose ~policy ~requester:3 ~entry_order:Fun.id
       ~release_cost:cost ~rng:(Rng.make 1) cycles)
      .Resolver.victims
  in
  checkb "min-cost preempts old T2" true (run Policy.Min_cost = [ (2, [ "f" ]) ]);
  checkb "ordered protects T2, rolls requester" true
    (run Policy.Ordered_min_cost = [ (3, [ "b" ]) ])

let test_fig2_mutual_preemption_livelock () =
  (* Dynamic counterpart: a hot exclusive workload under Min_cost with
     MCS's minimal rollbacks live-locks (the paper's "potentially
     infinite" scenario), while Ordered_min_cost finishes. Bounded tick
     budget turns the livelock into an observable non-completion. *)
  let module Generator = Prb_workload.Generator in
  let module Scheduler = Prb_core.Scheduler in
  let params =
    {
      Generator.default_params with
      n_entities = 16;
      zipf_theta = 0.9;
      max_locks = 8;
      read_fraction = 0.0;
    }
  in
  let run policy =
    let config =
      {
        Scheduler.default_config with
        strategy = Strategy.Mcs;
        policy;
        max_ticks = 60_000;
      }
    in
    let r =
      Prb_sim.Sim.run_generated
        ~config:{ Prb_sim.Sim.scheduler = config; mpl = 10 }
        ~params ~seed:42 ~n_txns:120 ()
    in
    r.Prb_sim.Sim.stats.Scheduler.commits
  in
  let ordered = run Policy.Ordered_min_cost in
  let min_cost = run Policy.Min_cost in
  checki "ordered finishes everything" 120 ordered;
  checkb "min-cost stalls in mutual preemption" true (min_cost < 120)

(* --- Figure 3 --------------------------------------------------------- *)

let fig3_configuration () =
  let store = Store.create () in
  let locks = Lock_table.create ~fair:false store in
  let wfg = Waits_for.create () in
  List.iter (Waits_for.add_txn wfg) [ 1; 2; 3 ];
  let request id mode e = Lock_table.request locks id mode (Store.id store e) in
  let must_grant id mode e =
    match request id mode e with
    | Lock_table.Granted -> ()
    | Lock_table.Blocked _ -> assert false
  in
  must_grant 1 Lock_mode.Exclusive "a";
  must_grant 1 Lock_mode.Exclusive "b";
  must_grant 2 Lock_mode.Shared "f";
  must_grant 3 Lock_mode.Shared "f";
  (match request 2 Lock_mode.Exclusive "a" with
  | Lock_table.Blocked holders -> Waits_for.set_wait wfg ~waiter:2 ~holders "a"
  | Lock_table.Granted -> assert false);
  (match request 3 Lock_mode.Exclusive "b" with
  | Lock_table.Blocked holders -> Waits_for.set_wait wfg ~waiter:3 ~holders "b"
  | Lock_table.Granted -> assert false);
  (match request 1 Lock_mode.Exclusive "f" with
  | Lock_table.Blocked holders -> Waits_for.set_wait wfg ~waiter:1 ~holders "f"
  | Lock_table.Granted -> assert false);
  (store, locks, wfg)

let test_fig3_two_cycles_through_requester () =
  let _, _, wfg = fig3_configuration () in
  let cycles = Waits_for.cycles_through wfg 1 in
  checki "two cycles" 2 (List.length cycles);
  List.iter
    (fun c -> checkb "T1 on every cycle" true (List.mem 1 c))
    cycles

let test_fig3_conflict_classification () =
  let store, locks, _ = fig3_configuration () in
  checkb "X on shared-held f is Type 2" true
    (Lock_table.classify locks 9 Lock_mode.Exclusive (Store.id store "f")
    = Lock_table.Type2);
  checkb "S on X-held a is Type 1" true
    (Lock_table.classify locks 9 Lock_mode.Shared (Store.id store "a")
    = Lock_table.Type1)

let test_fig3_cut_alternatives () =
  let _, _, wfg = fig3_configuration () in
  let cycles = Waits_for.cycles_through wfg 1 in
  let exact cost =
    match Cutset.exact { Cutset.cycles; cost } with
    | Some cut -> cut
    | None -> Alcotest.fail "exact solver gave up"
  in
  checkil "uniform costs: cut {T1}" [ 1 ] (exact (fun _ -> 1.0));
  checkil "T1 expensive: cut {T2, T3}" [ 2; 3 ]
    (exact (fun v -> if v = 1 then 5.0 else 1.0))

(* --- Figure 4 --------------------------------------------------------- *)

(* DESIGN.md's reconstruction: 6 locks; entity A written in segments
   1, 3, 4; local c written in segments 4 and 6 (the "C := K" write is the
   segment-4 one); entity B written in segments 5 and 6. With C := K only
   states 0 and 6 are well-defined; deleting it frees state 4. *)
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

let test_fig4_only_trivial_states () =
  checkil "only 0 and 6 well-defined" [ 0; 6 ]
    (Sdg_view.well_defined_states (fig4_txn ~with_ck:true))

let test_fig4_deleting_write_frees_state4 () =
  checkil "0, 4 and 6" [ 0; 4; 6 ]
    (Sdg_view.well_defined_states (fig4_txn ~with_ck:false))

let test_fig4_articulation_view_agrees () =
  List.iter
    (fun with_ck ->
      let p = fig4_txn ~with_ck in
      checkil "Theorem 4 / Corollary 1"
        (Sdg_view.well_defined_states p)
        (Sdg_view.well_defined_via_articulation p))
    [ true; false ]

let test_fig4_runtime_agrees () =
  let store =
    Store.of_list
      (List.map (fun e -> (e, Value.int 0)) [ "A"; "B"; "C"; "D"; "E"; "F" ])
  in
  List.iter
    (fun with_ck ->
      let p = fig4_txn ~with_ck in
      let ts = Txn_state.create ~strategy:Strategy.Sdg ~id:0 ~store p in
      advance ts ~stop_pc:(Program.length p);
      checkil "runtime = static"
        (Sdg_view.well_defined_states p)
        (Txn_state.well_defined_states ts))
    [ true; false ]

let test_fig4_rollback_stops_at_4 () =
  (* In T1', a single-copy rollback that must release F (lock state 5) can
     stop at the well-defined state 4 instead of falling to 0. *)
  let store =
    Store.of_list
      (List.map (fun e -> (e, Value.int 0)) [ "A"; "B"; "C"; "D"; "E"; "F" ])
  in
  let p = fig4_txn ~with_ck:false in
  let ts = Txn_state.create ~strategy:Strategy.Sdg ~id:0 ~store p in
  advance ts ~stop_pc:(Program.length p);
  checki "target for F" 4 (Txn_state.rollback_target ts "F");
  checkb "E and F released" true
    (List.sort compare
       (List.map (Store.name store) (Txn_state.rollback_to ts 4))
    = [ "E"; "F" ]);
  (* with C := K present the same rollback must fall all the way to lock
     state 0 — the only non-trivial well-defined state left *)
  let ts' =
    Txn_state.create ~strategy:Strategy.Sdg ~id:1 ~store (fig4_txn ~with_ck:true)
  in
  advance ts' ~stop_pc:(Program.length (fig4_txn ~with_ck:true));
  checki "target collapses to lock state 0" 0 (Txn_state.rollback_target ts' "F")

(* --- Figure 5 --------------------------------------------------------- *)

let test_fig5_clustering_gain () =
  let t1 = fig4_txn ~with_ck:true in
  let t2 = Program.cluster_writes t1 in
  let wd p = List.length (Sdg_view.well_defined_states p) in
  checki "T1 keeps 2 of 7" 2 (wd t1);
  checki "clustered T2 keeps all 7" 7 (wd t2);
  checki "damage span vanishes" 0 (Program.damage_span t2);
  checkb "same operations, just reordered" true
    (Program.length t1 = Program.length t2)

let test_fig5_three_phase_immune () =
  let t1 = fig4_txn ~with_ck:true in
  let tp = Program.make_three_phase t1 in
  checkb "three-phase achieved" true (Program.is_three_phase tp);
  (* a three-phase transaction performs no monitored writes *)
  let store =
    Store.of_list
      (List.map (fun e -> (e, Value.int 0)) [ "A"; "B"; "C"; "D"; "E"; "F" ])
  in
  let ts = Txn_state.create ~strategy:Strategy.Sdg ~id:0 ~store tp in
  advance ts ~stop_pc:(Program.length tp);
  checki "zero monitored writes" 0 (Txn_state.monitored_writes ts)

let () =
  Alcotest.run "prb_figures"
    [
      ( "figure 1",
        [
          Alcotest.test_case "costs 4/6/5" `Quick test_fig1_costs;
          Alcotest.test_case "T2 chosen" `Quick test_fig1_victim_choice;
          Alcotest.test_case "rollback frees a" `Quick test_fig1_rollback_frees_a;
          Alcotest.test_case "single-cycle graph" `Quick test_fig1_graph_is_single_cycle;
        ] );
      ( "figure 2",
        [
          Alcotest.test_case "policies differ" `Quick test_fig2_policies_differ;
          Alcotest.test_case "mutual preemption livelock" `Slow
            test_fig2_mutual_preemption_livelock;
        ] );
      ( "figure 3",
        [
          Alcotest.test_case "two cycles through requester" `Quick
            test_fig3_two_cycles_through_requester;
          Alcotest.test_case "conflict types" `Quick test_fig3_conflict_classification;
          Alcotest.test_case "cut alternatives" `Quick test_fig3_cut_alternatives;
        ] );
      ( "figure 4",
        [
          Alcotest.test_case "only trivial states" `Quick test_fig4_only_trivial_states;
          Alcotest.test_case "deletion frees state 4" `Quick
            test_fig4_deleting_write_frees_state4;
          Alcotest.test_case "articulation agreement" `Quick
            test_fig4_articulation_view_agrees;
          Alcotest.test_case "runtime agreement" `Quick test_fig4_runtime_agrees;
          Alcotest.test_case "rollback stops at 4" `Quick test_fig4_rollback_stops_at_4;
        ] );
      ( "figure 5",
        [
          Alcotest.test_case "clustering gain" `Quick test_fig5_clustering_gain;
          Alcotest.test_case "three-phase immunity" `Quick test_fig5_three_phase_immune;
        ] );
    ]
