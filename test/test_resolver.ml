(* Tests for Prb_core.Resolver and Policy: victim selection over cycle
   sets, including the Figure 1 configuration. *)

module Resolver = Prb_core.Resolver
module Policy = Prb_core.Policy
module Rng = Prb_util.Rng

let checkb = Alcotest.(check bool)

let choose ?(policy = Policy.Min_cost) ?(requester = 1)
    ?(entry = fun v -> v) ?(cost = fun _ es -> List.length es) cycles =
  Resolver.choose ~policy ~requester ~entry_order:entry ~release_cost:cost
    ~rng:(Rng.make 1) cycles

let victims d = List.map fst d.Resolver.victims

let test_policy_string_roundtrip () =
  List.iter
    (fun p ->
      checkb "round-trip" true (Policy.of_string (Policy.to_string p) = Some p))
    Policy.all;
  checkb "garbage" true (Policy.of_string "nope" = None)

(* Figure 1: cycle over T2,T3,T4 with costs 4,6,5 — min-cost picks T2. *)
let fig1_cycles = [ [ (4, "e"); (3, "c"); (2, "b") ] ]

let fig1_cost v _ = match v with 2 -> 4 | 3 -> 6 | 4 -> 5 | _ -> 99

let test_min_cost_fig1 () =
  let d = choose ~requester:2 ~cost:fig1_cost fig1_cycles in
  checkb "T2 chosen" true (victims d = [ 2 ]);
  checkb "optimal" true d.Resolver.optimal;
  checkb "releases b" true (d.Resolver.victims = [ (2, [ "b" ]) ])

let test_requester_policy () =
  let d = choose ~policy:Policy.Requester ~requester:2 ~cost:fig1_cost fig1_cycles in
  checkb "requester chosen" true (victims d = [ 2 ])

let test_youngest_policy () =
  let d = choose ~policy:Policy.Youngest ~requester:2 ~cost:fig1_cost fig1_cycles in
  checkb "max entry order chosen" true (victims d = [ 4 ])

let test_ordered_restricts_to_younger () =
  (* requester 3: only 4 is younger; min cost among {4} = 4 even though 2
     is cheaper overall *)
  let cycles = [ [ (4, "e"); (3, "c"); (2, "b") ] ] in
  let d = choose ~policy:Policy.Ordered_min_cost ~requester:3 ~cost:fig1_cost cycles in
  checkb "older T2 protected" true (victims d = [ 4 ])

let test_ordered_falls_back_to_requester () =
  (* requester 4 is the youngest: no eligible younger member, so it rolls
     itself back *)
  let d = choose ~policy:Policy.Ordered_min_cost ~requester:4 ~cost:fig1_cost fig1_cycles in
  checkb "requester fallback" true (victims d = [ 4 ])

let test_multi_cycle_shared_vertex () =
  (* Figure 3(c): two cycles, both through requester 1. With uniform
     costs the shared vertex is the optimal cut. *)
  let cycles = [ [ (2, "f"); (1, "a") ]; [ (3, "f"); (1, "b") ] ] in
  let d = choose ~requester:1 ~cost:(fun _ _ -> 1) cycles in
  checkb "shared vertex cut" true (victims d = [ 1 ]);
  checkb "collects both entities" true
    (List.assoc 1 d.Resolver.victims = [ "a"; "b" ])

let test_multi_cycle_split_cut () =
  let cycles = [ [ (2, "f"); (1, "a") ]; [ (3, "f"); (1, "b") ] ] in
  let cost v _ = if v = 1 then 10 else 1 in
  let d = choose ~requester:1 ~cost cycles in
  checkb "split cut {2,3}" true (victims d = [ 2; 3 ])

let test_random_policy_breaks_all () =
  let cycles = [ [ (2, "f"); (1, "a") ]; [ (3, "g"); (1, "b") ] ] in
  let d = choose ~policy:Policy.Random_victim ~requester:1 cycles in
  (* whatever was picked must hit both cycles *)
  let hit cycle = List.exists (fun (m, _) -> List.mem m (victims d)) cycle in
  checkb "all cycles hit" true (List.for_all hit cycles)

let test_empty_cycles_rejected () =
  Alcotest.check_raises "no cycles" (Invalid_argument "Resolver.choose: no cycles")
    (fun () -> ignore (choose []))

let test_requester_missing_rejected () =
  Alcotest.check_raises "requester missing"
    (Invalid_argument "Resolver.choose: requester missing from a cycle")
    (fun () -> ignore (choose ~requester:9 fig1_cycles))

(* qcheck: for every policy, the decision is a cut (victims hit every
   cycle). *)
let arbitrary_cycles requester =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (list_size (int_range 1 3)
         (pair (int_range 2 6) (oneofl [ "a"; "b"; "c" ])))
    |> map (fun cycles ->
           List.map (fun c -> ((requester, "r") :: c)) cycles))

let qcheck_decision_is_cut policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "decision hits every cycle (%s)" (Policy.to_string policy))
    ~count:300
    (QCheck.make (arbitrary_cycles 1))
    (fun cycles ->
      let d =
        Resolver.choose ~policy ~requester:1 ~entry_order:Fun.id
          ~release_cost:(fun v es -> v + List.length es)
          ~rng:(Rng.make 7) cycles
      in
      let vs = victims d in
      List.for_all (fun c -> List.exists (fun (m, _) -> List.mem m vs) c) cycles)

(* qcheck: victims' entity lists cover exactly their cycle arcs *)
let qcheck_victim_entities_sound =
  QCheck.Test.make ~name:"victim entity lists come from their arcs" ~count:300
    (QCheck.make (arbitrary_cycles 1))
    (fun cycles ->
      let d =
        Resolver.choose ~policy:Policy.Min_cost ~requester:1
          ~entry_order:Fun.id
          ~release_cost:(fun _ es -> List.length es)
          ~rng:(Rng.make 7) cycles
      in
      List.for_all
        (fun (v, entities) ->
          List.for_all
            (fun e ->
              List.exists (List.exists (fun (m, e') -> m = v && e = e')) cycles)
            entities)
        d.Resolver.victims)

(* --- Flat records against the list reference ---------------------- *)

module W = Prb_wfg.Waits_for
module R = Waits_for_ref

(* A random waits-for graph from a script of [set_wait]s, applied to the
   dense graph and to the Digraph-backed reference. Waiters wait on
   different entities, so the arc labels are meaningful. *)
let script_gen =
  QCheck.(
    list_of_size
      Gen.(1 -- 20)
      (triple (int_bound 7)
         (list_of_size Gen.(1 -- 3) (int_bound 7))
         (oneofl [ "a"; "b"; "c"; "d" ])))

let build script =
  let g = W.create () and r = R.create () in
  List.iter
    (fun (waiter, hs, e) ->
      let holders = List.sort_uniq compare (List.filter (( <> ) waiter) hs) in
      if holders <> [] then begin
        W.set_wait g ~waiter ~holders e;
        R.set_wait r ~waiter ~holders e
      end)
    script;
  (g, r)

(* The reference enumeration relabelled arc by arc, as the engine once
   did: a cycle [root; v1; ...; vk] becomes the arcs into
   [v1; ...; vk; root], each labelled with its predecessor's wait. *)
let relabel r cycles =
  let label u v = List.assoc v (R.waits r u) in
  List.map
    (fun cycle ->
      let root = List.hd cycle in
      let rec arcs = function
        | [] -> []
        | [ last ] -> [ (root, label last root) ]
        | u :: (v :: _ as rest) -> (v, label u v) :: arcs rest
      in
      arcs cycle)
    cycles

(* The record's member table is exactly the distinct arc members,
   ascending. *)
let members_exact (c : W.cycles) =
  Array.to_list (Array.sub c.members 0 c.n_members)
  = List.sort_uniq compare (List.concat_map (List.map fst) (W.arcs c))

let roots = List.init 8 Fun.id

let qcheck_record_matches_reference =
  QCheck.Test.make ~name:"flat record = reference enumeration relabelled"
    ~count:300 script_gen (fun script ->
      let g, r = build script in
      List.for_all
        (fun root ->
          List.for_all
            (fun limit ->
              let expected = relabel r (R.cycles_through ~limit r root) in
              let c = W.enumerate ~limit g root in
              W.arcs c = expected
              && members_exact c
              &&
              (* the distributed engine's in-place filter *)
              (W.keep_cycles c (fun k -> k mod 2 = 0);
               W.arcs c = List.filteri (fun k _ -> k mod 2 = 0) expected
               && members_exact c))
            [ 1; 3; 64 ])
        roots)

let qcheck_flat_decides_as_reference =
  QCheck.Test.make
    ~name:"flat victim choice = list reference (all policies)" ~count:300
    QCheck.(
      quad script_gen
        (array_of_size (Gen.return 8) (int_bound 4))
        (array_of_size (Gen.return 8) bool)
        (pair (array_of_size (Gen.return 8) (int_bound 3)) small_int))
    (fun (script, costs, immune_of, (order, seed)) ->
      let g, r = build script in
      let immune v = immune_of.(v) and entry_order v = order.(v) in
      let release_cost v es = costs.(v) + List.length es in
      List.for_all
        (fun root ->
          List.for_all
            (fun limit ->
              let expected = relabel r (R.cycles_through ~limit r root) in
              expected = []
              || List.for_all
                   (fun policy ->
                     let rng = Rng.make seed and rng_ref = Rng.make seed in
                     let d =
                       Resolver.choose_cycles ~immune ~policy ~requester:root
                         ~entry_order ~release_cost ~rng
                         (W.enumerate ~limit g root)
                     in
                     d
                     = Resolver_ref.choose ~immune ~policy ~requester:root
                         ~entry_order ~release_cost ~rng:rng_ref expected
                     && Rng.int rng 1_000_000 = Rng.int rng_ref 1_000_000)
                   Policy.all)
            [ 3; 64 ])
        roots)

(* The list entry point on hand-built cycles — duplicate members, the
   requester anywhere in a cycle — against the reference. *)
let qcheck_list_entry_as_reference =
  QCheck.Test.make ~name:"list entry point = list reference" ~count:300
    QCheck.(
      triple
        (make (arbitrary_cycles 1))
        (array_of_size (Gen.return 7) bool)
        small_int)
    (fun (cycles, immune_of, seed) ->
      let immune v = immune_of.(v) in
      let release_cost v es = (v mod 3) + List.length es in
      List.for_all
        (fun policy ->
          let rng = Rng.make seed and rng_ref = Rng.make seed in
          Resolver.choose ~immune ~policy ~requester:1 ~entry_order:Fun.id
            ~release_cost ~rng cycles
          = Resolver_ref.choose ~immune ~policy ~requester:1
              ~entry_order:Fun.id ~release_cost ~rng:rng_ref cycles
          && Rng.int rng 1_000_000 = Rng.int rng_ref 1_000_000)
        Policy.all)

(* A record wider than one mask word both ways: requester 0 waits on 70
   shared holders, each waiting back on it, so 70 two-arc cycles over 71
   members. Every decision must also be the reference's. *)
let test_wide_record () =
  let g = W.create () in
  let holders = List.init 70 (fun i -> i + 1) in
  W.set_wait g ~waiter:0 ~holders "r";
  List.iter
    (fun v -> W.set_wait g ~waiter:v ~holders:[ 0 ] (Printf.sprintf "e%d" v))
    holders;
  let c = W.enumerate g 0 in
  checkb "70 cycles over 71 members" true
    (c.W.n_cycles = 70 && c.W.n_members = 71);
  let decide ?(immune = fun _ -> false) policy release_cost =
    let d =
      Resolver.choose_cycles ~immune ~policy ~requester:0 ~entry_order:Fun.id
        ~release_cost ~rng:(Rng.make 1) c
    in
    checkb "reference decides the same" true
      (d
      = Resolver_ref.choose ~immune ~policy ~requester:0 ~entry_order:Fun.id
          ~release_cost ~rng:(Rng.make 1) (W.arcs c));
    d
  in
  (* the requester is older than every holder: each cycle loses its
     holder *)
  let d = decide Policy.Ordered_min_cost (fun _ es -> List.length es) in
  checkb "every holder, optimally" true
    (victims d = holders && d.Resolver.optimal);
  checkb "each releases r" true
    (List.for_all (fun (_, es) -> es = [ "r" ]) d.Resolver.victims);
  (* the requester costs more than the 70 holders together, then less *)
  let d = decide Policy.Min_cost (fun v _ -> if v = 0 then 71 else 1) in
  checkb "holders cheaper" true (victims d = holders);
  let d = decide Policy.Min_cost (fun v _ -> if v = 0 then 69 else 1) in
  checkb "requester cheaper" true (victims d = [ 0 ]);
  (* immune holders past bit 62: under min-cost their cycles fall to the
     requester; under ordered min-cost, where the requester is not
     eligible, to the immune holders themselves *)
  let immune v = v > 62 in
  let d = decide ~immune Policy.Min_cost (fun v _ -> if v = 0 then 69 else 1) in
  checkb "immune leave it to the requester" true
    (victims d = [ 0 ] && not d.Resolver.starved_fallback);
  let d = decide ~immune Policy.Ordered_min_cost (fun _ _ -> 1) in
  checkb "immunity bends" true
    (victims d = holders && d.Resolver.starved_fallback)

(* --- The cut by max-flow against enumeration ----------------------- *)

module Flow_cut = Prb_graph.Flow_cut

(* A waits-for graph shaped like a hotspot deadlock: the requester waits
   on a first layer of shared holders, each member of a layer on some of
   the next layer, the last layer on the requester (1-4 layers of 1-3
   members), plus a few arbitrary extra waits, which may close cycles
   that avoid the requester. Transactions get distinct ids from 0..31,
   labels come from a small pool (so released lists merge), and each
   transaction a cost from {1, 2, 3, 5}, an entry order and an immunity
   bit. *)
type fan = {
  waits : (int * int list * string) list;  (** waiter, holders, label *)
  requester : int;
  cost : int array;
  order : int array;
  immune_bits : bool array;
}

let fan_gen =
  QCheck.Gen.(
    list_size (int_range 1 4) (int_range 1 3) >>= fun widths ->
    let n = 1 + List.fold_left ( + ) 0 widths in
    shuffle_l (List.init 32 Fun.id) >>= fun ids ->
    let id = Array.of_list ids in
    (* layer [i]'s positions, the requester at position 0 *)
    let layers =
      let start = ref 1 in
      List.map
        (fun w ->
          let l = List.init w (fun j -> !start + j) in
          start := !start + w;
          l)
        widths
    in
    let nl = List.length layers in
    let pick_some l =
      list_size (int_range 1 (List.length l)) (oneofl l) >|= List.sort_uniq compare
    in
    let rec waits i acc =
      if i > nl then return (List.rev acc)
      else
        let here = if i = 0 then [ 0 ] else List.nth layers (i - 1) in
        let next = if i = nl then [ 0 ] else List.nth layers i in
        flatten_l (List.map (fun v -> pick_some next >|= fun hs -> (v, hs)) here)
        >>= fun ws -> waits (i + 1) (List.rev_append ws acc)
    in
    waits 0 [] >>= fun base ->
    list_size (int_range 0 3) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >>= fun extra ->
    let extra = List.filter (fun (u, v) -> u <> v) extra in
    let base =
      List.map
        (fun (v, hs) ->
          (v, List.sort_uniq compare (hs @ List.filter_map (fun (u, w) -> if u = v then Some w else None) extra)))
        base
    in
    list_repeat n (oneofl [ "a"; "b"; "c"; "d"; "e"; "f" ]) >>= fun labels ->
    array_repeat 32 (oneofl [ 1; 2; 3; 5 ]) >>= fun cost ->
    shuffle_l (List.init 32 Fun.id) >|= Array.of_list >>= fun order ->
    array_repeat 32 (frequency [ (3, return false); (1, return true) ])
    >>= fun immune_bits ->
    return
      {
        waits =
          List.map
            (fun (v, hs) -> (id.(v), List.map (fun h -> id.(h)) hs, List.nth labels v))
            base;
        requester = id.(0);
        cost;
        order;
        immune_bits;
      })

let print_fan f =
  Printf.sprintf "requester %d; %s" f.requester
    (String.concat "; "
       (List.map
          (fun (w, hs, e) ->
            Printf.sprintf "%d-%s->%s" w e
              (String.concat "," (List.map string_of_int hs)))
          f.waits))

let fan_graph f =
  let g = W.create () in
  List.iter (fun (w, hs, e) -> W.set_wait g ~waiter:w ~holders:hs e) f.waits;
  g

(* Brute force over the full enumeration: is the requester's cut
   unique, with at most nine candidates, and every cycle through the
   requester found within [limit]; and is its strongly connected
   component acyclic without it? *)
let flow_should_answer f policy limit =
  let g = fan_graph f in
  let r = f.requester in
  let all = W.cycles_through ~limit:1_000_000 g r in
  let d = Digraph.create () in
  List.iter (fun (w, hs, _) -> List.iter (fun h -> Digraph.add_edge d w h) hs) f.waits;
  let scc =
    List.filter
      (fun v -> v <> r && Digraph.path_exists d r v && Digraph.path_exists d v r)
      (Digraph.vertices d)
  in
  let rest = Digraph.create () in
  List.iter
    (fun (u, v) -> if List.mem u scc && List.mem v scc then Digraph.add_edge rest u v)
    (Digraph.edges d);
  let tier v =
    let eligible =
      match policy with
      | Policy.Ordered_min_cost -> f.order.(v) > f.order.(r)
      | _ -> true
    in
    if not eligible then 2 else if f.immune_bits.(v) then 1 else 0
  in
  let cands cycle =
    let low = List.fold_left (fun m v -> min m (tier v)) 2 cycle in
    if low < 2 then List.filter (fun v -> tier v = low) cycle else [ r ]
  in
  let per_cycle = List.map cands all in
  let candidates = List.sort_uniq compare (List.concat per_cycle) in
  let rec subsets = function
    | [] -> [ [] ]
    | v :: rest ->
        let s = subsets rest in
        s @ List.map (fun x -> v :: x) s
  in
  let best = ref max_int and ties = ref 0 in
  if List.length candidates <= 9 then
    List.iter
      (fun set ->
        if List.for_all (List.exists (fun v -> List.mem v set)) per_cycle then begin
          let c = List.fold_left (fun a v -> a + f.cost.(v)) 0 set in
          if c < !best then (best := c; ties := 1)
          else if c = !best then incr ties
        end)
      (subsets candidates);
  all <> []
  && List.length all < limit
  && (not (Digraph.has_cycle rest))
  && List.length candidates <= 9
  && !ties = 1

let flow_decides f policy limit =
  let g = fan_graph f in
  let immune v = f.immune_bits.(v) and entry_order v = f.order.(v) in
  let release_cost v _ = f.cost.(v) in
  let c = W.component ~limit g f.requester in
  let n_cycles = c.W.n_cycles in
  let flow =
    Resolver.choose_flow ~immune ~policy ~entry_order ~release_cost
      (Flow_cut.create ()) c
  in
  let record = W.enumerate ~limit g f.requester in
  let agrees =
    match flow with
    | None -> true
    | Some d ->
        n_cycles = record.W.n_cycles
        && d
           = Resolver.choose_cycles ~immune ~policy ~requester:f.requester
               ~entry_order ~release_cost ~rng:(Rng.make 1) record
        && d.Resolver.optimal
  in
  (flow <> None, agrees)

let qcheck_flow_as_enumeration =
  QCheck.Test.make ~name:"flow decision = enumerated decision" ~count:2000
    (QCheck.make ~print:print_fan fan_gen)
    (fun f ->
      List.for_all
        (fun (policy, limit) ->
          let answered, agrees = flow_decides f policy limit in
          agrees && (answered || not (flow_should_answer f policy limit)))
        [
          (Policy.Min_cost, 8);
          (Policy.Min_cost, 256);
          (Policy.Ordered_min_cost, 8);
          (Policy.Ordered_min_cost, 256);
        ])

(* Figure 3(c): T1 requests X against shared holders T2 and T3, which
   wait on T1, so two cycles through T1. At equal cost {T1} and
   {T2, T3} tie, and flow leaves the choice to enumeration; at T1's
   cost 3 the pair is cheaper and flow decides it. *)
let test_flow_declines_tie () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2; 3 ] "x";
  W.set_wait g ~waiter:2 ~holders:[ 1 ] "y";
  W.set_wait g ~waiter:3 ~holders:[ 1 ] "z";
  let decide cost =
    Resolver.choose_flow ~policy:Policy.Min_cost ~entry_order:Fun.id
      ~release_cost:(fun v _ -> cost v) (Flow_cut.create ())
      (W.component ~limit:256 g 1)
  in
  checkb "tied: declined" true (decide (fun v -> if v = 1 then 2 else 1) = None);
  match decide (fun v -> if v = 1 then 3 else 1) with
  | Some d -> checkb "pair decided" true (victims d = [ 2; 3 ])
  | None -> Alcotest.fail "a unique cut was declined"

(* The 256-cycle fan of the micro-benchmarks reaches the cycle limit, so
   enumeration would be cut short: flow declines. *)
let test_flow_declines_capped () =
  let g = W.create () in
  let layer i = [ (2 * i) + 1; (2 * i) + 2 ] in
  W.set_wait g ~waiter:0 ~holders:(layer 0) "r";
  for i = 0 to 7 do
    List.iter
      (fun v ->
        W.set_wait g ~waiter:v
          ~holders:(if i = 7 then [ 0 ] else layer (i + 1))
          (Printf.sprintf "e%d" v))
      (layer i)
  done;
  let c = W.component ~limit:256 g 0 in
  checkb "256 cycles: incomplete" false c.W.complete;
  checkb "declined" true
    (Resolver.choose_flow ~policy:Policy.Ordered_min_cost ~entry_order:Fun.id
       ~release_cost:(fun _ es -> List.length es)
       (Flow_cut.create ()) c
    = None);
  checkb "complete under a higher limit" true
    (let c = W.component ~limit:257 g 0 in
     c.W.complete && c.W.n_cycles = 256)

let () =
  Alcotest.run "prb_resolver"
    [
      ( "policies",
        [
          Alcotest.test_case "string round-trip" `Quick test_policy_string_roundtrip;
          Alcotest.test_case "min-cost on Figure 1" `Quick test_min_cost_fig1;
          Alcotest.test_case "requester" `Quick test_requester_policy;
          Alcotest.test_case "youngest" `Quick test_youngest_policy;
          Alcotest.test_case "ordered protects elders" `Quick
            test_ordered_restricts_to_younger;
          Alcotest.test_case "ordered requester fallback" `Quick
            test_ordered_falls_back_to_requester;
        ] );
      ( "multi-cycle",
        [
          Alcotest.test_case "shared vertex cut" `Quick test_multi_cycle_shared_vertex;
          Alcotest.test_case "split cut" `Quick test_multi_cycle_split_cut;
          Alcotest.test_case "random breaks all" `Quick test_random_policy_breaks_all;
          Alcotest.test_case "empty rejected" `Quick test_empty_cycles_rejected;
          Alcotest.test_case "requester missing rejected" `Quick
            test_requester_missing_rejected;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest (qcheck_decision_is_cut p)) Policy.all
        @ [ QCheck_alcotest.to_alcotest qcheck_victim_entities_sound ] );
      ( "flat records",
        [
          QCheck_alcotest.to_alcotest qcheck_record_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_flat_decides_as_reference;
          QCheck_alcotest.to_alcotest qcheck_list_entry_as_reference;
          Alcotest.test_case "more than 62 members" `Quick test_wide_record;
          QCheck_alcotest.to_alcotest qcheck_flow_as_enumeration;
          Alcotest.test_case "flow declines a tie" `Quick test_flow_declines_tie;
          Alcotest.test_case "flow declines a capped record" `Quick
            test_flow_declines_capped;
        ] );
    ]
