(* Tests for the graph code: the test-side [Digraph] under the reference
   oracles, and Prb_graph's articulation points and cut sets — including
   qcheck properties against brute-force oracles. *)

module Ugraph = Prb_graph.Ugraph
module Cutset = Prb_graph.Cutset
module Flow_cut = Prb_graph.Flow_cut

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkil = Alcotest.(check (list int))

(* --- Digraph basics --- *)

let test_digraph_edges () =
  let g = Digraph.create () in
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 2 3;
  checkb "mem" true (Digraph.mem_edge g 1 2);
  checkb "not mem reversed" false (Digraph.mem_edge g 2 1);
  checkil "succ" [ 2; 3 ] (Digraph.succ g 1);
  checkil "pred" [ 1; 2 ] (Digraph.pred g 3);
  checki "n_edges" 3 (Digraph.n_edges g);
  Digraph.remove_edge g 1 2;
  checkb "removed" false (Digraph.mem_edge g 1 2);
  checki "n_edges after remove" 2 (Digraph.n_edges g)

let test_digraph_remove_vertex () =
  let g = Digraph.create () in
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 3;
  Digraph.add_edge g 3 1;
  Digraph.remove_vertex g 2;
  checkb "vertex gone" false (Digraph.mem_vertex g 2);
  checkil "succ 1 empty" [] (Digraph.succ g 1);
  checkil "pred 3 empty" [] (Digraph.pred g 3);
  checkb "no cycle left" false (Digraph.has_cycle g)

let test_digraph_idempotent_ops () =
  let g = Digraph.create () in
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 1 2;
  checki "simple graph" 1 (Digraph.n_edges g);
  Digraph.add_vertex g 1;
  checki "vertices stable" 2 (Digraph.n_vertices g);
  Digraph.remove_edge g 1 2;
  Digraph.remove_edge g 1 2;
  checki "remove idempotent" 0 (Digraph.n_edges g)

let test_digraph_copy_isolated () =
  let g = Digraph.create () in
  Digraph.add_edge g 1 2;
  let h = Digraph.copy g in
  Digraph.add_edge h 2 1;
  checkb "copy has new edge" true (Digraph.mem_edge h 2 1);
  checkb "original untouched" false (Digraph.mem_edge g 2 1)

(* --- Cycles and reachability --- *)

let test_cycle_detection () =
  let g = Digraph.create () in
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 3;
  checkb "acyclic" false (Digraph.has_cycle g);
  Digraph.add_edge g 3 1;
  checkb "cyclic" true (Digraph.has_cycle g)

let test_self_loop_cycle () =
  let g = Digraph.create () in
  Digraph.add_edge g 5 5;
  checkb "self-loop is a cycle" true (Digraph.has_cycle g);
  checkb "cycle through 5" true (Digraph.cycle_through g 5 = Some [ 5 ])

let test_find_cycle_valid () =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v)
    [ (1, 2); (2, 3); (3, 4); (4, 2); (1, 5) ];
  match Digraph.find_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some cycle ->
      (* Every consecutive pair (and the wrap) must be an edge. *)
      let n = List.length cycle in
      checkb "non-empty" true (n > 0);
      List.iteri
        (fun i u ->
          let v = List.nth cycle ((i + 1) mod n) in
          checkb "cycle edge exists" true (Digraph.mem_edge g u v))
        cycle

let test_path_exists () =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (1, 2); (2, 3); (4, 1) ];
  checkb "path 4->3" true (Digraph.path_exists g 4 3);
  checkb "no path 3->4" false (Digraph.path_exists g 3 4);
  checkb "no empty path" false (Digraph.path_exists g 1 1)

let test_path_exists_early_exit () =
  (* A 100k-vertex chain where the target sits right next to the source:
     the search must stop at the first neighbour instead of materialising
     the whole reachable set. 300 calls complete far inside a generous
     CPU bound; the pre-early-exit implementation walked the full chain
     on every call and took tens of seconds. *)
  let g = Digraph.create () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    Digraph.add_edge g i (i + 1)
  done;
  let t0 = Sys.time () in
  for _ = 1 to 300 do
    checkb "adjacent target found" true (Digraph.path_exists g 0 1)
  done;
  checkb "300 adjacent-target searches stay under 2s CPU" true
    (Sys.time () -. t0 < 2.0);
  checkb "full chain still reachable" true (Digraph.path_exists g 0 n);
  checkb "no reverse path" false (Digraph.path_exists g n 0)

let test_path_exists_from_any () =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (1, 2); (2, 3); (10, 11) ];
  checkb "second source reaches" true (Digraph.path_exists_from_any g [ 10; 1 ] 3);
  checkb "no source reaches" false (Digraph.path_exists_from_any g [ 10; 3 ] 1);
  checkb "no sources" false (Digraph.path_exists_from_any g [] 3);
  checkb "unknown source ignored" false (Digraph.path_exists_from_any g [ 99 ] 3);
  (* like path_exists, source = target needs an actual cycle *)
  checkb "source=target without loop" false (Digraph.path_exists_from_any g [ 3 ] 3);
  Digraph.add_edge g 3 3;
  checkb "self-loop closes it" true (Digraph.path_exists_from_any g [ 3 ] 3)

let test_scc_from () =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v)
    [ (1, 2); (2, 3); (3, 1); (3, 4); (4, 5); (5, 4); (7, 7); (8, 9) ];
  let comps = List.sort compare (Digraph.scc_from g [ 1 ]) in
  checkb "components reachable from 1" true (comps = [ [ 1; 2; 3 ]; [ 4; 5 ] ]);
  checkb "unknown root skipped" true (Digraph.scc_from g [ 99 ] = []);
  checkil "on-cycle vertices from 1" [ 1; 2; 3; 4; 5 ]
    (Digraph.cyclic_vertices_from g [ 1 ]);
  checkil "self-loop is on-cycle" [ 7 ] (Digraph.cyclic_vertices_from g [ 7 ]);
  checkil "acyclic region has none" [] (Digraph.cyclic_vertices_from g [ 8 ]);
  (* seeding at every vertex matches the unrestricted on-cycle set *)
  checkil "all roots" [ 1; 2; 3; 4; 5; 7 ]
    (Digraph.cyclic_vertices_from g (Digraph.vertices g))

let test_cycles_through () =
  let g = Digraph.create () in
  (* two cycles through 1: 1-2-1 and 1-3-4-1; one cycle avoiding 1: 5-6-5 *)
  List.iter (fun (u, v) -> Digraph.add_edge g u v)
    [ (1, 2); (2, 1); (1, 3); (3, 4); (4, 1); (5, 6); (6, 5) ];
  let cycles = Digraph.cycles_through g 1 in
  checki "two cycles through 1" 2 (List.length cycles);
  List.iter (fun c -> checkb "starts at 1" true (List.hd c = 1)) cycles;
  checki "one cycle through 5" 1 (List.length (Digraph.cycles_through g 5))

let test_cycles_through_limit () =
  let g = Digraph.create () in
  (* complete digraph on 7 vertices: lots of cycles *)
  for u = 0 to 6 do
    for v = 0 to 6 do
      if u <> v then Digraph.add_edge g u v
    done
  done;
  let cycles = Digraph.cycles_through ~limit:5 g 0 in
  checki "respects limit" 5 (List.length cycles)

let test_cycles_through_budget () =
  let g = Digraph.create () in
  (* dense DAG: exponentially many paths, zero cycles *)
  for u = 0 to 15 do
    for v = u + 1 to 15 do
      Digraph.add_edge g u v
    done
  done;
  let cycles = Digraph.cycles_through ~limit:10 ~budget:10_000 g 0 in
  checki "no cycles, terminates fast" 0 (List.length cycles)

let test_forest_shape () =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (1, 2); (3, 2); (4, 3) ];
  checkb "inverted forest" true (Digraph.is_forest_inverted g);
  Digraph.add_edge g 2 5;
  checkb "still forest" true (Digraph.is_forest_inverted g);
  Digraph.add_edge g 2 6;
  checkb "out-degree 2 breaks it" false (Digraph.is_forest_inverted g)

let test_scc () =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v)
    [ (1, 2); (2, 3); (3, 1); (3, 4); (4, 5); (5, 4) ];
  let comps = Digraph.scc g in
  let sorted = List.sort compare comps in
  checkb "components" true (sorted = [ [ 1; 2; 3 ]; [ 4; 5 ] ])

let test_topological_sort () =
  let g = Digraph.create () in
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (1, 2); (1, 3); (3, 4); (2, 4) ];
  (match Digraph.topological_sort g with
  | None -> Alcotest.fail "expected topo order"
  | Some order ->
      let pos v =
        let rec idx i = function
          | [] -> assert false
          | x :: rest -> if x = v then i else idx (i + 1) rest
        in
        idx 0 order
      in
      List.iter
        (fun (u, v) -> checkb "edge respects order" true (pos u < pos v))
        (Digraph.edges g));
  Digraph.add_edge g 4 1;
  checkb "cyclic has none" true (Digraph.topological_sort g = None)

(* qcheck: has_cycle agrees with SCC-based oracle *)
let arbitrary_edges =
  QCheck.(list (pair (int_bound 7) (int_bound 7)))

let qcheck_cycle_vs_scc =
  QCheck.Test.make ~name:"has_cycle agrees with scc oracle" ~count:500
    arbitrary_edges (fun edges ->
      let g = Digraph.create () in
      List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
      let self_loop = List.exists (fun (u, v) -> u = v) (Digraph.edges g) in
      let oracle =
        self_loop
        || List.exists (fun c -> List.length c > 1) (Digraph.scc g)
      in
      Digraph.has_cycle g = oracle)

let qcheck_topo_iff_acyclic =
  QCheck.Test.make ~name:"topological_sort succeeds iff acyclic" ~count:500
    arbitrary_edges (fun edges ->
      let g = Digraph.create () in
      List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
      (Digraph.topological_sort g <> None) = not (Digraph.has_cycle g))

(* qcheck: the cached vertex/edge counters stay consistent with full
   enumeration under arbitrary add/remove churn, including remove_vertex
   tearing out incident edges and self-loops. *)
let qcheck_counts_vs_enumeration =
  QCheck.Test.make ~name:"cached counts match enumeration under churn"
    ~count:300
    QCheck.(list (triple (int_bound 2) (int_bound 5) (int_bound 5)))
    (fun ops ->
      let g = Digraph.create () in
      List.iter
        (fun (op, u, v) ->
          match op with
          | 0 -> Digraph.add_edge g u v
          | 1 -> Digraph.remove_edge g u v
          | _ -> Digraph.remove_vertex g u)
        ops;
      Digraph.n_edges g = List.length (Digraph.edges g)
      && Digraph.n_vertices g = List.length (Digraph.vertices g))

(* qcheck: path_exists_from_any is exactly the disjunction of per-source
   path_exists. *)
let qcheck_multi_source_vs_union =
  QCheck.Test.make ~name:"path_exists_from_any = exists path_exists"
    ~count:300
    QCheck.(pair arbitrary_edges (pair (list (int_bound 7)) (int_bound 7)))
    (fun (edges, (sources, target)) ->
      let g = Digraph.create () in
      List.iter (fun (u, v) -> Digraph.add_edge g u v) edges;
      Digraph.path_exists_from_any g sources target
      = List.exists (fun s -> Digraph.path_exists g s target) sources)

(* --- Ugraph --- *)

let test_ugraph_basics () =
  let g = Ugraph.create () in
  Ugraph.add_edge g 1 2;
  checkb "symmetric" true (Ugraph.mem_edge g 2 1);
  checkil "neighbours" [ 2 ] (Ugraph.neighbours g 1);
  Ugraph.remove_edge g 2 1;
  checkb "removed both ways" false (Ugraph.mem_edge g 1 2)

let test_ugraph_components () =
  let g = Ugraph.create () in
  Ugraph.add_edge g 1 2;
  Ugraph.add_edge g 3 4;
  Ugraph.add_vertex g 9;
  checkb "three components" true
    (Ugraph.connected_components g = [ [ 1; 2 ]; [ 3; 4 ]; [ 9 ] ]);
  checkb "not connected" false (Ugraph.is_connected g)

let test_articulation_chain () =
  let g = Ugraph.create () in
  for i = 0 to 4 do
    Ugraph.add_edge g i (i + 1)
  done;
  checkil "interior vertices are cut" [ 1; 2; 3; 4 ] (Ugraph.articulation_points g)

let test_articulation_cycle () =
  let g = Ugraph.create () in
  List.iter (fun (u, v) -> Ugraph.add_edge g u v) [ (0, 1); (1, 2); (2, 0) ];
  checkil "cycle has no cut vertex" [] (Ugraph.articulation_points g)

let test_articulation_bridge_of_cycles () =
  let g = Ugraph.create () in
  (* two triangles joined at vertex 2 *)
  List.iter (fun (u, v) -> Ugraph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ];
  checkil "shared vertex is cut" [ 2 ] (Ugraph.articulation_points g)

(* qcheck: articulation points vs brute force removal oracle *)
let qcheck_articulation_oracle =
  QCheck.Test.make ~name:"articulation points match removal oracle" ~count:300
    QCheck.(list (pair (int_bound 6) (int_bound 6)))
    (fun edges ->
      let g = Ugraph.create () in
      List.iter (fun (u, v) -> Ugraph.add_edge g u v) edges;
      let n_components h = List.length (Ugraph.connected_components h) in
      let oracle v =
        (* v is a cut vertex iff its removal strictly increases the
           number of components (isolated vertices decrease it, leaves
           keep it constant). *)
        let h = Ugraph.copy g in
        Ugraph.remove_vertex h v;
        n_components h > n_components g
      in
      let expected = List.filter oracle (Ugraph.vertices g) in
      Ugraph.articulation_points g = expected)

(* --- Cutset --- *)

let test_cutset_empty () =
  let inst = { Cutset.cycles = []; cost = (fun _ -> 1.0) } in
  checkb "empty instance" true (Cutset.exact inst = Some []);
  checkb "greedy empty" true (Cutset.greedy inst = [])

let test_cutset_single_cycle () =
  let inst =
    { Cutset.cycles = [ [ 1; 2; 3 ] ]; cost = (fun v -> float_of_int v) }
  in
  checkb "picks cheapest" true (Cutset.exact inst = Some [ 1 ])

let test_cutset_shared_vertex () =
  (* all cycles share vertex 1 which is cheap: cut = {1} *)
  let inst =
    {
      Cutset.cycles = [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ] ];
      cost = (fun v -> if v = 1 then 1.5 else 1.0);
    }
  in
  checkb "shared vertex wins" true (Cutset.exact inst = Some [ 1 ])

let test_cutset_prefers_split () =
  (* shared vertex too expensive: cut = the two others *)
  let inst =
    {
      Cutset.cycles = [ [ 1; 2 ]; [ 1; 3 ] ];
      cost = (fun v -> if v = 1 then 5.0 else 1.0);
    }
  in
  checkb "split cut" true (Cutset.exact inst = Some [ 2; 3 ])

let test_cutset_greedy_is_cut () =
  let inst =
    {
      Cutset.cycles = [ [ 1; 2; 3 ]; [ 3; 4 ]; [ 5; 1 ]; [ 2; 4; 5 ] ];
      cost = (fun v -> 1.0 +. (float_of_int v /. 10.0));
    }
  in
  checkb "greedy produces a cut" true (Cutset.is_cut inst (Cutset.greedy inst))

(* The solver evaluates each candidate's cost once; the greedy seed of
   the branch-and-bound bound reads those costs instead of asking again. *)
let test_cutset_cost_once () =
  let calls = Hashtbl.create 8 in
  let cost v =
    Hashtbl.replace calls v
      (1 + Option.value ~default:0 (Hashtbl.find_opt calls v));
    1.0 +. float_of_int (v mod 3)
  in
  let inst =
    { Cutset.cycles = [ [ 1; 2; 3 ]; [ 3; 4 ]; [ 5; 1 ]; [ 2; 4; 5 ] ]; cost }
  in
  checkb "exact found a cut" true (Cutset.exact inst <> None);
  List.iter
    (fun v ->
      checki
        (Printf.sprintf "cost of %d asked once" v)
        1
        (Option.value ~default:0 (Hashtbl.find_opt calls v)))
    [ 1; 2; 3; 4; 5 ]

let qcheck_exact_beats_greedy =
  QCheck.Test.make ~name:"exact cut is a cut and costs <= greedy" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 5) (list_of_size (Gen.int_range 1 4) (int_bound 6)))
    (fun cycles ->
      let inst =
        { Cutset.cycles; cost = (fun v -> 1.0 +. float_of_int (v mod 3)) }
      in
      match Cutset.exact inst with
      | None -> QCheck.assume_fail ()
      | Some cut ->
          Cutset.is_cut inst cut
          && Cutset.total_cost inst cut
             <= Cutset.total_cost inst (Cutset.greedy inst) +. 1e-9)

(* qcheck: the member-bitmask solver against [Cutset_ref], the solver on
   per-cycle candidate lists it replaced. Instances have 1-130 candidates
   and 1-300 cycles, so masks span several words both ways; costs come
   from three values, so ties occur; node budgets start at 1, so a [None]
   must agree too. Both entry points: the indexed one the resolver calls,
   and the vertex-list one. *)
let mask_instance_gen =
  QCheck.Gen.(
    oneof [ pair (int_range 1 12) (int_range 1 40);
            pair (int_range 1 130) (int_range 1 300) ]
    >>= fun (n, n_cycles) ->
    int_range 1 6 >>= fun width ->
    triple
      (array_repeat n (oneofl [ 1.0; 2.0; 3.5 ]))
      (list_repeat n_cycles (list_size (int_range 1 width) (int_bound (n - 1))))
      (oneof [ int_range 1 40; int_range 1 20_000 ]))

let print_mask_instance (costs, cycles, budget) =
  Printf.sprintf "%d candidates, %d cycles, budget %d: %s"
    (Array.length costs) (List.length cycles) budget
    (String.concat " | "
       (List.map (fun c -> String.concat "," (List.map string_of_int c)) cycles))

let both_forms costs cycles =
  let cycles = List.map (List.sort_uniq Int.compare) cycles in
  let n_cycles = List.length cycles in
  let first = Array.make (n_cycles + 1) 0 in
  List.iteri (fun k c -> first.(k + 1) <- first.(k) + List.length c) cycles;
  let member = Array.of_list (List.concat cycles) in
  ( Cutset.of_cycles ~n_cycles ~first ~member
      ~tier:(Array.make (Array.length costs) 0)
      ~fallback:0
      ~cost:(fun i -> costs.(i)),
    { Cutset_ref.costs; first; cands = member } )

let qcheck_mask_solver_as_reference =
  QCheck.Test.make ~name:"mask solver = reference" ~count:300
    (QCheck.make ~print:print_mask_instance mask_instance_gen)
    (fun (costs, cycles, node_budget) ->
      let x, xr = both_forms costs cycles in
      (* vertex ids spread out and not starting at 0 *)
      let vertex i = (3 * i) + 7 in
      let cost v = costs.((v - 7) / 3) in
      let inst = { Cutset.cycles = List.map (List.map vertex) cycles; cost } in
      let inst_ref = { Cutset_ref.cycles = inst.cycles; cost } in
      Cutset.exact_indexed ~node_budget x
      = Cutset_ref.exact_indexed ~node_budget xr
      && Cutset.greedy_indexed x = Cutset_ref.greedy_indexed xr
      && Cutset.exact ~node_budget inst = Cutset_ref.exact ~node_budget inst_ref
      && Cutset.greedy inst = Cutset_ref.greedy inst_ref)

(* --- Flow_cut --- *)

(* qcheck: the max-flow cut against brute force over vertex subsets. An
   instance is a root on 2-8 vertices, a random order on the others, and
   arcs that go forward in that order or touch the root (a few each way
   at least), so the graph without the root is acyclic and the cycles
   through it are its root-to-root paths; the vertices on none are
   dropped and the rest renumbered in order, leaving the root's
   strongly connected component. Tiers come from one of three
   settings: every vertex eligible (min-cost), Theorem 2's order (the
   root and the older vertices in tier 2, the requester fallback) and
   mixed immunity (any tier anywhere). Costs come from {0, 1, 2, 3, 5}:
   a zero-cost candidate outside the cut is a tie. Each cycle's
   candidates follow [Cutset.of_cycles]; the brute force takes every
   subset of the candidates that meets them all and keeps the cheapest,
   counting ties. The solver must agree on the cost, the verdict, the
   cut, the candidates whose cost it asks and their number. *)
(* The cycles through [root], each as its vertex list. *)
let root_cycles root arcs =
  let rec walk path v =
    List.concat_map
      (fun (u, w) ->
        if u <> v then []
        else if w = root then [ List.rev path ]
        else walk (w :: path) w)
      arcs
  in
  walk [ root ] root

let flow_instance_gen =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    int_bound (n - 1) >>= fun root ->
    array_repeat n (int_bound 1000) >>= fun keys ->
    list_size (int_range 1 20) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >>= fun arcs ->
    pair
      (list_size (int_range 1 3) (int_bound (n - 1)))
      (list_size (int_range 1 3) (int_bound (n - 1)))
    >>= fun (outs, ins) ->
    int_bound 2 >>= fun setting ->
    array_repeat n (int_bound 2) >>= fun tiers ->
    array_repeat n (oneofl [ 0; 1; 2; 3; 5 ]) >>= fun costs ->
    let before u w = compare (keys.(u), u) (keys.(w), w) < 0 in
    let arcs =
      List.sort_uniq compare
        (List.filter
           (fun (u, w) -> u <> w && (u = root || w = root || before u w))
           (arcs
           @ List.map (fun w -> (root, w)) outs
           @ List.map (fun u -> (u, root)) ins))
    in
    let tier =
      Array.mapi
        (fun v t ->
          match setting with
          | 0 -> 0
          | 1 -> if v = root || t = 0 then 2 else 0
          | _ -> t)
        tiers
    in
    let on = List.sort_uniq compare (root :: List.concat (root_cycles root arcs)) in
    let rank v =
      let rec go i = function
        | [] -> -1
        | u :: rest -> if u = v then i else go (i + 1) rest
      in
      go 0 on
    in
    let keep = List.filter (fun (u, w) -> rank u >= 0 && rank w >= 0) arcs in
    return
      ( List.length on,
        rank root,
        List.map (fun (u, w) -> (rank u, rank w)) keep,
        Array.of_list (List.map (fun v -> tier.(v)) on),
        Array.of_list (List.map (fun v -> costs.(v)) on) ))

let print_flow_instance (n, root, arcs, tier, costs) =
  Printf.sprintf "n %d root %d arcs %s tiers %s costs %s" n root
    (String.concat " "
       (List.map (fun (u, w) -> Printf.sprintf "%d>%d" u w) arcs))
    (String.concat "," (Array.to_list (Array.map string_of_int tier)))
    (String.concat "," (Array.to_list (Array.map string_of_int costs)))

let csr n arcs =
  let first = Array.make (n + 1) 0 in
  List.iter (fun (u, _) -> first.(u + 1) <- first.(u + 1) + 1) arcs;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  (first, Array.of_list (List.map snd arcs))

(* (minimum cost, number of cheapest subsets, the cheapest, candidates) *)
let brute_force root arcs tier costs =
  let cycles = root_cycles root arcs in
  let cands cycle =
    let low = List.fold_left (fun m v -> min m (min tier.(v) 2)) 2 cycle in
    if low < 2 then List.filter (fun v -> min tier.(v) 2 = low) cycle
    else [ root ]
  in
  let per_cycle = List.map cands cycles in
  let candidates = List.sort_uniq compare (List.concat per_cycle) in
  let best = ref max_int and count = ref 0 and cut = ref [] in
  let rec subsets = function
    | [] -> [ [] ]
    | v :: rest ->
        let s = subsets rest in
        s @ List.map (fun x -> v :: x) s
  in
  List.iter
    (fun set ->
      if List.for_all (List.exists (fun v -> List.mem v set)) per_cycle then begin
        let c = List.fold_left (fun a v -> a + costs.(v)) 0 set in
        if c < !best then begin
          best := c;
          count := 1;
          cut := List.sort compare set
        end
        else if c = !best then incr count
      end)
    (subsets candidates);
  (!best, !count, !cut, candidates)

let qcheck_flow_as_brute_force =
  QCheck.Test.make ~name:"max-flow cut = brute force" ~count:3000
    (QCheck.make ~print:print_flow_instance flow_instance_gen)
    (fun (n, root, arcs, tier, costs) ->
      let first, heads = csr n arcs in
      let best, count, cut, candidates = brute_force root arcs tier costs in
      let asked = ref [] in
      let cost v =
        asked := v :: !asked;
        costs.(v)
      in
      let x = Flow_cut.create () in
      let solve ?max_candidates cost =
        Flow_cut.solve x ?max_candidates ~n ~first ~heads ~root ~tier ~cost ()
      in
      let verdict_ok =
        match solve cost with
        | Flow_cut.Unique c -> count = 1 && c = cut
        | Flow_cut.Tied c -> count > 1 && c = best
        | Flow_cut.Over _ -> false
      in
      let k = List.length candidates in
      verdict_ok
      && List.rev !asked = candidates
      && (k = 0
         ||
         match solve ~max_candidates:(k - 1) (fun v -> costs.(v)) with
         | Flow_cut.Over m -> m = k
         | Flow_cut.Unique _ | Flow_cut.Tied _ -> false)
      &&
      match solve ~max_candidates:k (fun v -> costs.(v)) with
      | Flow_cut.Over _ -> false
      | Flow_cut.Unique _ | Flow_cut.Tied _ -> true)

let () =
  Alcotest.run "prb_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "edges" `Quick test_digraph_edges;
          Alcotest.test_case "remove vertex" `Quick test_digraph_remove_vertex;
          Alcotest.test_case "idempotent" `Quick test_digraph_idempotent_ops;
          Alcotest.test_case "copy isolation" `Quick test_digraph_copy_isolated;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "detection" `Quick test_cycle_detection;
          Alcotest.test_case "self loop" `Quick test_self_loop_cycle;
          Alcotest.test_case "find_cycle valid" `Quick test_find_cycle_valid;
          Alcotest.test_case "path_exists" `Quick test_path_exists;
          Alcotest.test_case "path_exists early exit" `Quick
            test_path_exists_early_exit;
          Alcotest.test_case "path_exists_from_any" `Quick
            test_path_exists_from_any;
          Alcotest.test_case "scc_from seeds" `Quick test_scc_from;
          Alcotest.test_case "cycles through vertex" `Quick test_cycles_through;
          Alcotest.test_case "cycle limit" `Quick test_cycles_through_limit;
          Alcotest.test_case "exploration budget" `Quick test_cycles_through_budget;
          Alcotest.test_case "forest shape" `Quick test_forest_shape;
          Alcotest.test_case "scc" `Quick test_scc;
          Alcotest.test_case "topological sort" `Quick test_topological_sort;
          QCheck_alcotest.to_alcotest qcheck_cycle_vs_scc;
          QCheck_alcotest.to_alcotest qcheck_topo_iff_acyclic;
          QCheck_alcotest.to_alcotest qcheck_counts_vs_enumeration;
          QCheck_alcotest.to_alcotest qcheck_multi_source_vs_union;
        ] );
      ( "ugraph",
        [
          Alcotest.test_case "basics" `Quick test_ugraph_basics;
          Alcotest.test_case "components" `Quick test_ugraph_components;
          Alcotest.test_case "articulation: chain" `Quick test_articulation_chain;
          Alcotest.test_case "articulation: cycle" `Quick test_articulation_cycle;
          Alcotest.test_case "articulation: joined triangles" `Quick
            test_articulation_bridge_of_cycles;
          QCheck_alcotest.to_alcotest qcheck_articulation_oracle;
        ] );
      ( "cutset",
        [
          Alcotest.test_case "empty" `Quick test_cutset_empty;
          Alcotest.test_case "single cycle" `Quick test_cutset_single_cycle;
          Alcotest.test_case "shared vertex" `Quick test_cutset_shared_vertex;
          Alcotest.test_case "prefers split" `Quick test_cutset_prefers_split;
          Alcotest.test_case "greedy is cut" `Quick test_cutset_greedy_is_cut;
          Alcotest.test_case "cost asked once per vertex" `Quick
            test_cutset_cost_once;
          QCheck_alcotest.to_alcotest qcheck_exact_beats_greedy;
          QCheck_alcotest.to_alcotest qcheck_mask_solver_as_reference;
        ] );
      ("flow", [ QCheck_alcotest.to_alcotest qcheck_flow_as_brute_force ]);
    ]
