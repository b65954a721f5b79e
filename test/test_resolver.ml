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
        ] );
    ]
