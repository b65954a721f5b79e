(* Micro-benchmarks of the hot paths (bechamel): deadlock detection,
   site routing, cycle enumeration, victim choice and costing,
   history-stack writes, rollback execution, SDG analysis. One Test.make
   per mechanism; estimated ns/op printed as a table. *)

open Bechamel
open Toolkit
module Table = Prb_util.Table
module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Ugraph = Prb_graph.Ugraph
module Waits_for = Prb_wfg.Waits_for
module History_stack = Prb_rollback.History_stack
module Txn_state = Prb_rollback.Txn_state
module Sdg_view = Prb_rollback.Sdg_view
module Strategy = Prb_rollback.Strategy
module Resolver = Prb_core.Resolver
module Policy = Prb_core.Policy
module D = Prb_distrib.Dist_scheduler

(* A 40-txn waits-for chain with a cycle at the end. *)
let chain_wfg () =
  let g = Waits_for.create () in
  for i = 0 to 40 do
    Waits_for.add_txn g i
  done;
  for i = 0 to 39 do
    Waits_for.set_wait g ~waiter:i ~holders:[ i + 1 ] "e"
  done;
  g

let bench_would_deadlock =
  let g = chain_wfg () in
  Test.make ~name:"would_deadlock (40-txn chain)"
    (Staged.stage (fun () -> Waits_for.would_deadlock g ~waiter:40 ~holders:[ 0 ]))

(* A multi-holder probe by the head of a 1k chain. Nobody waits on the
   head, so the in-degree exit answers before any search. *)
let bench_would_deadlock_multi =
  let g = Waits_for.create () in
  for i = 0 to 1000 do
    Waits_for.add_txn g i
  done;
  for i = 0 to 999 do
    Waits_for.set_wait g ~waiter:i ~holders:[ i + 1 ] "e"
  done;
  Test.make ~name:"would_deadlock (1k chain, 8 holders)"
    (Staged.stage (fun () ->
         Waits_for.would_deadlock g ~waiter:0
           ~holders:[ 100; 200; 300; 400; 500; 600; 700; 800 ]))

(* Shapes that decide [would_deadlock] in different ways: the in-degree
   exit, a full walk, and a hit on the first edge searched. *)

(* A long chain probed by its head, which nobody waits on: the in-degree
   exit answers without walking the chain at all. *)
let bench_wd_chain_acyclic =
  let n = 4000 in
  let g = Waits_for.create () in
  for i = 0 to n do
    Waits_for.add_txn g i
  done;
  for i = 0 to n - 1 do
    Waits_for.set_wait g ~waiter:i ~holders:[ i + 1 ] "e"
  done;
  Test.make ~name:"would_deadlock in-degree exit (4k chain)"
    (Staged.stage (fun () -> Waits_for.would_deadlock g ~waiter:0 ~holders:[ n ]))

(* The same chain probed by its tail waiting on the head: the probe
   closes the cycle, and the search walks the whole chain before saying
   yes. *)
let bench_wd_chain_cycle =
  let n = 4000 in
  let g = Waits_for.create () in
  for i = 0 to n do
    Waits_for.add_txn g i
  done;
  for i = 0 to n - 1 do
    Waits_for.set_wait g ~waiter:i ~holders:[ i + 1 ] "e"
  done;
  Test.make ~name:"would_deadlock chain walk (4k chain, cycle)"
    (Staged.stage (fun () -> Waits_for.would_deadlock g ~waiter:n ~holders:[ 0 ]))

(* A convoy star: every spoke waits on the hub, and the probe asks
   whether the hub may wait back on a handful of them — the shape an
   exclusive hot entity produces under high contention. The first
   holder's only edge reaches the hub, so the search stops there. *)
let bench_wd_star =
  let spokes = 256 in
  let g = Waits_for.create () in
  Waits_for.add_txn g 0;
  for i = 1 to spokes do
    Waits_for.add_txn g i;
    Waits_for.set_wait g ~waiter:i ~holders:[ 0 ] "h"
  done;
  Test.make ~name:"would_deadlock first-edge hit (256-spoke star)"
    (Staged.stage (fun () ->
         Waits_for.would_deadlock g ~waiter:0 ~holders:[ 1; 64; 128; 192; 256 ]))

(* Edge churn: close the chain's back edge with [set_wait], probe a
   waiter on it (a first-edge hit), then reopen it with [clear_wait] —
   the edge traffic of a cycle that forms and is then resolved. *)
let bench_wd_churn =
  let n = 512 in
  let g = Waits_for.create () in
  for i = 0 to n do
    Waits_for.add_txn g i
  done;
  for i = 0 to n - 1 do
    Waits_for.set_wait g ~waiter:i ~holders:[ i + 1 ] "e"
  done;
  Test.make ~name:"set_wait/clear_wait churn (512 chain)"
    (Staged.stage (fun () ->
         Waits_for.set_wait g ~waiter:n ~holders:[ 0 ] "c";
         ignore (Waits_for.would_deadlock g ~waiter:1 ~holders:[ 0 ]);
         Waits_for.clear_wait g n))

(* The distributed engine's default entity-to-site map on a generated
   entity name: an FNV-1a fold over five bytes, then a modulus. Every lock
   request, grant and release asks it, and so does the block-time probe's
   label filter, once per waiter it searches through. *)
let site_map = D.create D.default_config (Store.of_list [])

let bench_site_map =
  Test.make ~name:"default site map (5-char entity)"
    (Staged.stage (fun () -> D.site_of site_map "e0017"))

(* The distributed block-time probe on a 16-transaction ring through the
   requester (0), which has just blocked on 1. Waiters 1-15 wait on
   entities of site 0 except waiter 12, whose entity lives on site 1, so
   the cycle is cross-site. Filtered to site 0 the search stops at
   waiter 12: no local cycle, so no enumeration follows. *)
let bench_site_probe =
  let names = List.init 64 (Printf.sprintf "e%04d") in
  let on s =
    Array.of_list (List.filter (fun e -> D.site_of site_map e = s) names)
  in
  let site0 = on 0 and site1 = on 1 in
  let g = Waits_for.create () in
  for i = 0 to 15 do
    Waits_for.set_wait g ~waiter:i
      ~holders:[ (i + 1) mod 16 ]
      (if i = 12 then site1.(0) else site0.(i))
  done;
  let label_ok = Some (fun e -> D.site_of site_map e = 0) in
  Test.make ~name:"site-filtered probe (cross-site ring, no local cycle)"
    (Staged.stage (fun () ->
         Waits_for.would_deadlock ?label_ok g ~waiter:0 ~holders:[ 1 ]))

(* Commit-path held-locks lookup: O(locks held) via the per-transaction
   index, independent of how many entries the table has accumulated. *)
let bench_held_by =
  let store = Store.create () in
  let t = Prb_lock.Lock_table.create store in
  let mode = Prb_txn.Lock_mode.Exclusive in
  let request who e =
    ignore (Prb_lock.Lock_table.request t who mode (Store.id store e))
  in
  for i = 0 to 4999 do
    request 1 (Printf.sprintf "a%d" i);
    request 2 (Printf.sprintf "b%d" i)
  done;
  request 3 "z1";
  request 3 "z2";
  request 3 "z3";
  Test.make ~name:"held_by (3 held, 10k-entry table)"
    (Staged.stage (fun () -> Prb_lock.Lock_table.held_by t 3))

(* The resolution fixpoint ([Engine.resolve]) end to end: a small
   high-contention run whose deadlock resolutions dominate the tick
   loop. *)
let bench_fixpoint =
  let params =
    {
      Prb_workload.Generator.default_params with
      n_entities = 12;
      zipf_theta = 0.9;
      min_locks = 3;
      max_locks = 6;
    }
  in
  Test.make ~name:"resolution fixpoint (20-txn contended run)"
    (Staged.stage (fun () ->
         Prb_sim.Sim.run_generated ~params ~seed:5 ~n_txns:20 ()))

let bench_cycles_through =
  let g = Waits_for.create () in
  (* figure-3-like fan: requester waits 6 shared holders, each waits back *)
  for i = 1 to 6 do
    Waits_for.add_txn g i
  done;
  Waits_for.add_txn g 0;
  Waits_for.set_wait g ~waiter:0 ~holders:[ 1; 2; 3; 4; 5; 6 ] "f";
  for i = 1 to 6 do
    Waits_for.set_wait g ~waiter:i ~holders:[ 0 ] "x"
  done;
  Test.make ~name:"cycles_through (6-cycle fan)"
    (Staged.stage (fun () -> Waits_for.cycles_through g 0))

let bench_victim_choice =
  let g = Waits_for.create () in
  (* A requester behind eight layers of two shared holders: each holder
     waits on both holders of the next layer and the last layer on the
     requester, so 2^8 = 256 cycles close through it — the shape of the
     hotspot deadlocks that reach the default cycle_limit. The first
     layer is cheapest, so, as in those deadlocks, branch-and-bound
     proves the greedy cut optimal in a few nodes and the time goes to
     enumerating and preparing the cycles. *)
  let layer i = [ (2 * i) + 1; (2 * i) + 2 ] in
  Waits_for.set_wait g ~waiter:0 ~holders:(layer 0) "r";
  for i = 0 to 7 do
    List.iter
      (fun v ->
        Waits_for.set_wait g ~waiter:v
          ~holders:(if i = 7 then [ 0 ] else layer (i + 1))
          (Printf.sprintf "e%d" v))
      (layer i)
  done;
  let rng = Prb_util.Rng.make 1 in
  Test.make ~name:"victim choice (256-cycle fan)"
    (Staged.stage (fun () ->
         Resolver.choose_cycles ~policy:Policy.Ordered_min_cost ~requester:0
           ~entry_order:Fun.id
           ~release_cost:(fun v es -> List.length es + if v <= 2 then 0 else 8)
           ~rng
           (Waits_for.enumerate ~limit:256 g 0)))

(* Victim choice alone on the mean hotspot deadlock's shape: 36 cycles of
   six arcs over 12 members. The requester (0) waits on two shared
   holders, each of them on the next layer of two, then three, then
   three, then on one transaction that waits back on the requester. Entry
   order makes the first three layers older than the requester and the
   requester older than the rest, so under ordered min-cost each cycle's
   candidates are its member of the last two layers: the three-holder
   layer (cost 15 together) beats the one transaction past it (17),
   greedy finds it, and branch-and-bound proves it in a few nodes. The
   record is enumerated once, outside the timing. Two more entries time
   the path the engine takes on the same graph — enumeration and victim
   choice together — and the one max flow replaces it with (DESIGN.md
   Section 16, "The cut by max-flow"): the requester's component and the
   cut, with no cycle listed. *)
let mean_wfg =
  let g = Waits_for.create () in
  let layers = [| [ 1; 2 ]; [ 3; 4 ]; [ 5; 6; 7 ]; [ 8; 9; 10 ]; [ 11 ] |] in
  Waits_for.set_wait g ~waiter:0 ~holders:layers.(0) "r";
  Array.iteri
    (fun i layer ->
      List.iter
        (fun v ->
          Waits_for.set_wait g ~waiter:v
            ~holders:(if i = 4 then [ 0 ] else layers.(i + 1))
            (Printf.sprintf "e%d" v))
        layer)
    layers;
  g

let mean_order v = if v = 0 then 7 else v
let mean_cost v es = List.length es + if v = 11 then 14 else 2

let bench_victim_choice_mean =
  let c = Waits_for.enumerate mean_wfg 0 in
  assert (c.Waits_for.n_cycles = 36 && c.Waits_for.n_members = 12);
  let rng = Prb_util.Rng.make 1 in
  Test.make ~name:"victim choice only (36 cycles, 12 members)"
    (Staged.stage (fun () ->
         Resolver.choose_cycles ~policy:Policy.Ordered_min_cost ~requester:0
           ~entry_order:mean_order ~release_cost:mean_cost ~rng c))

let bench_enumerate_and_choose_mean =
  let rng = Prb_util.Rng.make 1 in
  Test.make ~name:"enumerate + victim choice (36 cycles, 12 members)"
    (Staged.stage (fun () ->
         Resolver.choose_cycles ~policy:Policy.Ordered_min_cost ~requester:0
           ~entry_order:mean_order ~release_cost:mean_cost ~rng
           (Waits_for.enumerate ~limit:256 mean_wfg 0)))

let bench_victim_choice_flow_mean =
  let flow = Prb_graph.Flow_cut.create () in
  assert (
    Resolver.choose_flow ~policy:Policy.Ordered_min_cost ~entry_order:mean_order
      ~release_cost:mean_cost flow
      (Waits_for.component ~limit:256 mean_wfg 0)
    <> None);
  Test.make ~name:"victim choice by flow (36 cycles, 12 members)"
    (Staged.stage (fun () ->
         Resolver.choose_flow ~policy:Policy.Ordered_min_cost
           ~entry_order:mean_order ~release_cost:mean_cost flow
           (Waits_for.component ~limit:256 mean_wfg 0)))

let bench_history_write =
  Test.make ~name:"history write (mcs, 16 segments)"
    (Staged.stage (fun () ->
         let h =
           History_stack.create ~budget:max_int ~created_at:0
             ~initial:(Value.int 0)
         in
         for w = 1 to 16 do
           History_stack.write h ~lock_index:w (Value.int w)
         done))

let growing_program =
  Program.make ~name:"bench"
    ~locals:[ ("v", Value.int 0) ]
    (List.concat_map
       (fun i ->
         [
           Program.lock_x (Printf.sprintf "E%d" i);
           Program.read (Printf.sprintf "E%d" i) "v";
           Program.write (Printf.sprintf "E%d" i) Expr.(Mix (var "v"));
         ])
       (List.init 6 Fun.id))

let bench_store () =
  Store.of_list (List.init 6 (fun i -> (Printf.sprintf "E%d" i, Value.int i)))

(* Run a transaction through its growing phase: every lock granted, every
   data op executed, up to its first unlock or its end. *)
let rec grow ts =
  match Txn_state.next_action ts with
  | Txn_state.Need_lock _ ->
      Txn_state.lock_granted ts;
      grow ts
  | Txn_state.Data_step ->
      Txn_state.exec_data_op ts;
      grow ts
  | Txn_state.Need_unlock | Txn_state.At_end -> ()

let bench_txn_execute =
  let store = bench_store () in
  Test.make ~name:"execute 6-lock transaction (sdg)"
    (Staged.stage (fun () ->
         grow
           (Txn_state.create ~strategy:Strategy.Sdg ~id:0 ~store
              growing_program)))

let bench_rollback =
  let store = bench_store () in
  Test.make ~name:"grow + partial rollback (mcs)"
    (Staged.stage (fun () ->
         let ts =
           Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store growing_program
         in
         grow ts;
         ignore (Txn_state.rollback_to ts 3)))

(* The question victim choice asks of every cycle member: the progress
   lost releasing an arc's entities. A grown SDG transaction holds six
   locks, and its local's single copy damages the states in between, so
   each target is found by a downward restorability scan. Asked for each
   entity alone and for a three-entity set. *)
let bench_victim_costing =
  let ts =
    Txn_state.create ~strategy:Strategy.Sdg ~id:0 ~store:(bench_store ())
      growing_program
  in
  grow ts;
  let entities = Array.init 6 (Printf.sprintf "E%d") in
  let set = [ "E5"; "E3"; "E1" ] in
  Test.make ~name:"victim costing (sdg, 6 locks)"
    (Staged.stage (fun () ->
         for i = 0 to Array.length entities - 1 do
           ignore (Txn_state.cost_to_release ts entities.(i))
         done;
         ignore
           (Txn_state.cost_of_target ts (Txn_state.rollback_target_all ts set))))

let bench_sdg_analysis =
  Test.make ~name:"static SDG analysis (6 locks)"
    (Staged.stage (fun () -> Sdg_view.well_defined_states growing_program))

(* The steady-state lock hot path: grant then release against a warm
   table, by the store ids admission resolves, so the loop touches only
   the dense per-entity buffers. *)
let bench_lock_grant_release =
  let store = Store.create () in
  let t = Prb_lock.Lock_table.create store in
  let mode = Prb_txn.Lock_mode.Exclusive in
  let names = Array.init 16 (fun i -> Store.id store (Printf.sprintf "W%d" i)) in
  Array.iter
    (fun e ->
      ignore (Prb_lock.Lock_table.request t 0 mode e);
      ignore (Prb_lock.Lock_table.release t 0 e))
    names;
  Test.make ~name:"lock grant+release (warm, 16 entities)"
    (Staged.stage (fun () ->
         Array.iter
           (fun e ->
             ignore (Prb_lock.Lock_table.request t 0 mode e);
             ignore (Prb_lock.Lock_table.release t 0 e))
           names))

(* Segment recycling: a full history lifetime (create, 16 writes,
   dispose) against a warm pool, so every buffer comes from and returns
   to the free list instead of the allocator. *)
let bench_pool_recycle =
  let pool = History_stack.Pool.create () in
  let cycle () =
    let h =
      History_stack.Pool.acquire pool ~budget:max_int ~created_at:0
        ~initial:(Value.int 0)
    in
    for w = 1 to 16 do
      History_stack.write h ~lock_index:w (Value.int w)
    done;
    History_stack.Pool.release pool h
  in
  cycle ();
  Test.make ~name:"history lifetime via pool (16 writes)"
    (Staged.stage cycle)

let bench_articulation =
  let g = Ugraph.create () in
  for i = 0 to 19 do
    Ugraph.add_edge g i (i + 1)
  done;
  Ugraph.add_edge g 2 9;
  Ugraph.add_edge g 5 15;
  Test.make ~name:"articulation points (21 vertices)"
    (Staged.stage (fun () -> Ugraph.articulation_points g))

let run () =
  Common.header "MICRO" "hot-path costs (bechamel, ns/op)";
  let tests =
    [
      bench_would_deadlock;
      bench_would_deadlock_multi;
      bench_wd_chain_acyclic;
      bench_wd_chain_cycle;
      bench_wd_star;
      bench_wd_churn;
      bench_site_map;
      bench_site_probe;
      bench_held_by;
      bench_fixpoint;
      bench_cycles_through;
      bench_victim_choice;
      bench_victim_choice_mean;
      bench_enumerate_and_choose_mean;
      bench_victim_choice_flow_mean;
      bench_history_write;
      bench_txn_execute;
      bench_rollback;
      bench_victim_costing;
      bench_sdg_analysis;
      bench_lock_grant_release;
      bench_pool_recycle;
      bench_articulation;
    ]
  in
  let quota = if !Common.quick then 0.1 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let table =
    Table.create
      [ ("benchmark", Table.Left); ("ns/op", Table.Right); ("r²", Table.Right) ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Table.cell_float ~decimals:1 est
            | Some _ | None -> "-"
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Table.cell_float ~decimals:4 r
            | None -> "-"
          in
          Table.add_row table [ name; ns; r2 ])
        analyzed)
    tests;
  Table.print table
