(* Tests for Prb_workload: the generator's promises and the domain
   scenarios. *)

module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Lock_mode = Prb_txn.Lock_mode
module Generator = Prb_workload.Generator
module Scenarios = Prb_workload.Scenarios
module Sdg_view = Prb_rollback.Sdg_view
module Rng = Prb_util.Rng
module Zipf = Prb_util.Zipf

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_populate () =
  let params = { Generator.default_params with n_entities = 10 } in
  let store = Generator.populate params in
  checki "size" 10 (Store.size store);
  checkb "names" true (Store.mem store "e0009");
  checkb "deterministic" true
    (Store.equal_state store (Generator.populate params))

let test_generate_deterministic () =
  let ps = Generator.default_params in
  let a = Generator.generate ps ~seed:9 ~n:20 in
  let b = Generator.generate ps ~seed:9 ~n:20 in
  checkb "same programs" true (List.for_all2 Program.equal a b);
  let c = Generator.generate ps ~seed:10 ~n:20 in
  checkb "different seed differs" false (List.for_all2 Program.equal a c)

let test_shared_zipf_is_transparent () =
  (* The sampler table is deterministic in the params, so passing one
     shared instance must change nothing about the drawn programs. *)
  let ps = Generator.default_params in
  let zipf =
    Prb_util.Zipf.make ~n:ps.Generator.n_entities ~theta:ps.Generator.zipf_theta
  in
  List.iter
    (fun seed ->
      let rng1 = Prb_util.Rng.make seed and rng2 = Prb_util.Rng.make seed in
      let fresh = Generator.generate_one ps rng1 ~name:"w" in
      let shared = Generator.generate_one ~zipf ps rng2 ~name:"w" in
      checkb "fresh and shared sampler agree" true (Program.equal fresh shared))
    [ 1; 7; 42 ]

let test_generate_valid () =
  List.iter
    (fun seed ->
      List.iter
        (fun p -> checkb "valid" true (Program.validate p = Ok ()))
        (Generator.generate Generator.default_params ~seed ~n:50))
    [ 1; 2; 3 ]

let test_lock_bounds_respected () =
  let params =
    { Generator.default_params with min_locks = 2; max_locks = 4 }
  in
  List.iter
    (fun p ->
      let n = Program.n_locks p in
      checkb "within bounds" true (n >= 2 && n <= 4))
    (Generator.generate params ~seed:4 ~n:60)

let test_read_fraction_extremes () =
  let all_x =
    Generator.generate
      { Generator.default_params with read_fraction = 0.0 }
      ~seed:5 ~n:30
  in
  let count_mode mode p =
    Array.fold_left
      (fun acc op ->
        match op with
        | Program.Lock (m, _) when Lock_mode.equal m mode -> acc + 1
        | _ -> acc)
      0 p.Program.ops
  in
  checkb "no shared locks" true
    (List.for_all (fun p -> count_mode Lock_mode.Shared p = 0) all_x);
  let all_s =
    Generator.generate
      { Generator.default_params with read_fraction = 1.0 }
      ~seed:5 ~n:30
  in
  checkb "no exclusive locks" true
    (List.for_all (fun p -> count_mode Lock_mode.Exclusive p = 0) all_s)

let test_three_phase_param () =
  let params =
    { Generator.default_params with three_phase = true; read_fraction = 0.0 }
  in
  List.iter
    (fun p -> checkb "three-phase structure" true (Program.is_three_phase p))
    (Generator.generate params ~seed:6 ~n:40)

let test_clustering_improves_well_defined () =
  (* aggregate over many programs: clustered workloads leave fewer
     destroyed states than scattered ones *)
  let fraction_wd params seed =
    let programs = Generator.generate params ~seed ~n:60 in
    let wd, states =
      List.fold_left
        (fun (wd, states) p ->
          ( wd + List.length (Sdg_view.well_defined_states p),
            states + Program.n_locks p + 1 ))
        (0, 0) programs
    in
    float_of_int wd /. float_of_int states
  in
  let base =
    { Generator.default_params with min_writes = 2; max_writes = 3; max_locks = 7 }
  in
  let clustered = fraction_wd { base with clustering = 1.0 } 13 in
  let scattered = fraction_wd { base with clustering = 0.0 } 13 in
  checkb "clustering preserves more states" true (clustered > scattered)

let test_generator_rejects_bad_params () =
  Alcotest.check_raises "locks > entities"
    (Invalid_argument "Generator: more locks than entities") (fun () ->
      ignore
        (Generator.generate
           { Generator.default_params with n_entities = 2; max_locks = 5 }
           ~seed:1 ~n:1))

(* --- The shared-parts generator against its reference --- *)

type case = { params : Generator.params; seed : int; n : int }

let pp_case ppf c =
  let p = c.params in
  Fmt.pf ppf
    "seed %d, %d programs, %d entities, theta %g, locks %d-%d, reads %g, \
     writes %d-%d, clustering %g, computes %d, three-phase %b, unlocks %b"
    c.seed c.n p.Generator.n_entities p.zipf_theta p.min_locks p.max_locks
    p.read_fraction p.min_writes p.max_writes p.clustering p.compute_ops
    p.three_phase p.explicit_unlocks

(* Read fraction and clustering take their end points often: [Rng.chance]
   draws nothing at 0 and 1. Heavy skew on as many locks as entities
   reaches the draw's linear-scan fallback; a few cases break a bound, so
   both sides must raise the same message. *)
let gen_case =
  let open QCheck.Gen in
  let unit_interval =
    frequency
      [ (1, return 0.0); (1, return 1.0); (3, float_bound_inclusive 1.0) ]
  in
  let* shape = int_bound 9 in
  let* n_entities, min_locks, max_locks, zipf_theta =
    match shape with
    | 0 | 1 ->
        let* n = int_range 1 20 in
        let* lo = int_range 1 n in
        let+ theta = float_range 2.0 4.0 in
        (n, lo, n, theta)
    | 2 ->
        let* n = int_range 0 8 in
        let* lo = int_range 0 4 in
        let* hi = int_range (-1) 9 in
        let+ theta = oneofl [ 0.5; -1.0; Float.nan ] in
        (n, lo, hi, theta)
    | _ ->
        let* n = int_range 1 300 in
        let* lo = int_range 1 (min n 8) in
        let* hi = int_range lo (min n (lo + 6)) in
        let+ theta =
          frequency [ (1, return 0.0); (3, float_bound_inclusive 4.0) ]
        in
        (n, lo, hi, theta)
  in
  let* read_fraction = unit_interval and* clustering = unit_interval in
  let* min_writes = int_bound 4 and* max_writes = int_bound 4 in
  let* compute_ops = int_bound 3 in
  let* three_phase = bool and* explicit_unlocks = bool in
  let* seed = int_bound 10_000 in
  let+ n = if shape < 2 then int_range 0 3 else int_range 0 25 in
  {
    params =
      {
        Generator.n_entities;
        min_locks;
        max_locks;
        read_fraction;
        zipf_theta;
        min_writes;
        max_writes;
        clustering;
        compute_ops;
        three_phase;
        explicit_unlocks;
      };
    seed;
    n;
  }

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same_outcome same a b =
  match (a, b) with
  | Ok x, Ok y -> same x y
  | Error m, Error m' -> String.equal m m'
  | Ok _, Error _ | Error _, Ok _ -> false

let same_programs = List.equal Program.equal

(* [n] programs drawn one after another from one generator, as a caller
   of [generate_one] would. *)
let one_by_one generate_one c =
  let rng = Rng.make c.seed in
  List.init c.n (fun i -> generate_one rng ~name:(Printf.sprintf "g%d" i))

let qcheck_generator_matches_reference =
  QCheck.Test.make ~name:"generator matches reference" ~count:300
    (QCheck.make ~print:(Fmt.to_to_string pp_case) gen_case)
    (fun c ->
      let p = c.params in
      let zipf =
        match Zipf.make ~n:p.n_entities ~theta:p.zipf_theta with
        | z -> Some z
        | exception Invalid_argument _ -> None
      in
      same_outcome same_programs
        (outcome (fun () -> Generator.generate p ~seed:c.seed ~n:c.n))
        (outcome (fun () -> Generator_ref.generate p ~seed:c.seed ~n:c.n))
      && same_outcome same_programs
           (outcome (fun () -> one_by_one (Generator.generate_one p) c))
           (outcome (fun () -> one_by_one (Generator_ref.generate_one p) c))
      &&
      match zipf with
      | None -> true
      | Some zipf ->
          same_outcome same_programs
            (outcome (fun () -> one_by_one (Generator.generate_one ~zipf p) c))
            (outcome (fun () ->
                 one_by_one (Generator_ref.generate_one ~zipf p) c)))

(* Per program, on the benchmark's uniform and hotspot shapes: the words
   [generate] allocates, and the words its result keeps reachable (the
   shared parts counted once). Formatting every name per use and keeping
   private copies of identical blocks took 2,331 and 2,344 words and kept
   289 (uniform, hotspot). *)
let program_words params =
  let n = 20_000 in
  (* As [prb bench] reads it: [Gc.minor_words] is exact, and a full major
     collection brings the major and promoted counts up to date. *)
  let allocated () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = allocated () in
  let programs = Generator.generate params ~seed:11 ~n in
  let after = allocated () in
  let reachable = Obj.reachable_words (Obj.repr programs) in
  let per_program x = x /. float_of_int n in
  (per_program (after -. before), per_program (float_of_int reachable))

(* About 25% above what the shared parts read: 629 and 84 words on
   uniform, 580 and 75 on hotspot. *)
let allocated_ceiling = 790.0
let reachable_ceiling = 105.0

let test_program_words () =
  let over =
    List.concat_map
      (fun (shape, n_entities, zipf_theta) ->
        let allocated, reachable =
          program_words { Generator.default_params with n_entities; zipf_theta }
        in
        List.filter_map
          (fun (what, value, ceiling) ->
            if value > ceiling then
              Some
                (Printf.sprintf "%s %s: %.1f words per program, ceiling %.0f"
                   shape what value ceiling)
            else None)
          [
            ("allocated", allocated, allocated_ceiling);
            ("reachable", reachable, reachable_ceiling);
          ])
      [ ("uniform", 20_000, 0.0); ("hotspot", 64, 0.8) ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* --- Scenarios --- *)

let test_transfer_shape () =
  let p = Scenarios.transfer ~name:"t" ~from_acct:0 ~to_acct:1 ~amount:5 in
  checkb "valid" true (Program.validate p = Ok ());
  checki "two locks" 2 (Program.n_locks p);
  checkb "no damage (single write per entity)" true (Program.damage_span p = 0)

let test_audit_shape () =
  let p = Scenarios.audit ~name:"a" ~accounts:[ 0; 1; 2 ] in
  checkb "valid" true (Program.validate p = Ok ());
  let all_shared =
    Array.for_all
      (function
        | Program.Lock (m, _) -> Lock_mode.equal m Lock_mode.Shared
        | _ -> true)
      p.Program.ops
  in
  checkb "all locks shared" true all_shared

let test_bank_invariant_on_serial_run () =
  let store = Scenarios.bank_store ~n_accounts:4 ~balance:100 in
  let sched = Prb_core.Scheduler.create store in
  let _ =
    Prb_core.Scheduler.submit sched
      (Scenarios.transfer ~name:"t0" ~from_acct:0 ~to_acct:1 ~amount:30)
  in
  let _ =
    Prb_core.Scheduler.submit sched
      (Scenarios.transfer ~name:"t1" ~from_acct:2 ~to_acct:3 ~amount:5)
  in
  Prb_core.Scheduler.run sched;
  checkb "invariant" true
    (Store.Constraint.holds
       (Scenarios.balance_invariant ~n_accounts:4 ~balance:100)
       store);
  checkb "moved" true (Value.equal (Store.get store "acct001") (Value.int 130))

let test_order_and_restock () =
  let store = Scenarios.inventory_store ~n_items:3 ~stock:50 in
  let sched = Prb_core.Scheduler.create store in
  let _ =
    Prb_core.Scheduler.submit sched
      (Scenarios.order ~name:"o" ~items:[ (0, 10); (1, 5) ])
  in
  let _ =
    Prb_core.Scheduler.submit sched
      (Scenarios.restock ~name:"r" ~item:0 ~quantity:7)
  in
  Prb_core.Scheduler.run sched;
  checkb "item0 = 50 - 10 + 7" true
    (Value.equal (Store.get store "item000") (Value.int 47));
  checkb "item1 = 45" true (Value.equal (Store.get store "item001") (Value.int 45))

let test_order_never_negative () =
  let store = Scenarios.inventory_store ~n_items:1 ~stock:5 in
  let sched = Prb_core.Scheduler.create store in
  let _ =
    Prb_core.Scheduler.submit sched
      (Scenarios.order ~name:"big" ~items:[ (0, 99) ])
  in
  Prb_core.Scheduler.run sched;
  checkb "clamped at zero" true
    (Value.equal (Store.get store "item000") (Value.int 0))

let test_order_entry () =
  let store =
    Scenarios.order_entry_store ~n_warehouses:1 ~districts_per_warehouse:2
      ~items_per_warehouse:5 ~stock:100
  in
  let sched = Prb_core.Scheduler.create store in
  let _ =
    Prb_core.Scheduler.submit sched
      (Scenarios.new_order ~name:"o1" ~warehouse:0 ~district:0
         ~lines:[ (1, 10); (3, 4) ])
  in
  let _ =
    Prb_core.Scheduler.submit sched
      (Scenarios.new_order ~name:"o2" ~warehouse:0 ~district:0
         ~lines:[ (3, 1) ])
  in
  Prb_core.Scheduler.run sched;
  checkb "done" true (Prb_core.Scheduler.all_committed sched);
  (* district counter advanced twice *)
  checkb "order ids consumed" true
    (Value.equal
       (Store.get store (Scenarios.district_counter ~warehouse:0 ~district:0))
       (Value.int 3));
  checkb "stock 3 decremented by both" true
    (Value.equal
       (Store.get store (Scenarios.stock_entry ~warehouse:0 ~item:3))
       (Value.int 95));
  checkb "ytd totals quantities" true
    (Value.equal (Store.get store (Scenarios.warehouse_ytd 0)) (Value.int 15))

let test_order_entry_programs_valid () =
  checkb "new_order valid" true
    (Program.validate
       (Scenarios.new_order ~name:"o" ~warehouse:0 ~district:1
          ~lines:[ (0, 1); (2, 2); (4, 3) ])
    = Ok ());
  checkb "stock_level valid" true
    (Program.validate
       (Scenarios.stock_level ~name:"s" ~warehouse:0 ~items:[ 0; 1; 2 ])
    = Ok ())

let test_sdg_dot_render () =
  let p =
    Scenarios.new_order ~name:"o" ~warehouse:0 ~district:0
      ~lines:[ (0, 1); (1, 2) ]
  in
  let dot = Sdg_view.to_dot p in
  let contains needle =
    let nh = String.length dot and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub dot i nn = needle || scan (i + 1)) in
    scan 0
  in
  checkb "graph header" true (contains "graph sdg {");
  checkb "has chain edge" true (contains "s0 -- s1");
  checkb "has dashed write edge" true (contains "style=dashed")

let () =
  Alcotest.run "prb_workload"
    [
      ( "generator",
        [
          Alcotest.test_case "populate" `Quick test_populate;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "shared zipf transparent" `Quick
            test_shared_zipf_is_transparent;
          Alcotest.test_case "always valid" `Quick test_generate_valid;
          Alcotest.test_case "lock bounds" `Quick test_lock_bounds_respected;
          Alcotest.test_case "read fraction extremes" `Quick test_read_fraction_extremes;
          Alcotest.test_case "three-phase param" `Quick test_three_phase_param;
          Alcotest.test_case "clustering effect" `Quick
            test_clustering_improves_well_defined;
          Alcotest.test_case "bad params" `Quick test_generator_rejects_bad_params;
          QCheck_alcotest.to_alcotest qcheck_generator_matches_reference;
          Alcotest.test_case "words per program" `Quick test_program_words;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "transfer shape" `Quick test_transfer_shape;
          Alcotest.test_case "audit shape" `Quick test_audit_shape;
          Alcotest.test_case "bank invariant" `Quick test_bank_invariant_on_serial_run;
          Alcotest.test_case "order and restock" `Quick test_order_and_restock;
          Alcotest.test_case "order clamps at zero" `Quick test_order_never_negative;
          Alcotest.test_case "order entry end-to-end" `Quick test_order_entry;
          Alcotest.test_case "order entry programs valid" `Quick
            test_order_entry_programs_valid;
          Alcotest.test_case "SDG dot rendering" `Quick test_sdg_dot_render;
        ] );
    ]
