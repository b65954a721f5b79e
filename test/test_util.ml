(* Tests for Prb_util: rng, zipf, stats, heap, dense, table. *)

module Rng = Prb_util.Rng
module Zipf = Prb_util.Zipf
module Stats = Prb_util.Stats
module Dense = Prb_util.Dense
module Table = Prb_util.Table

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.make 1 and b = Rng.make 2 in
  checkb "different seeds diverge" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    checkb "in [0,10)" true (v >= 0 && v < 10)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    checkb "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_int_invalid () =
  let rng = Rng.make 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.make 9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    checkb "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let a = Rng.make 5 in
  let b = Rng.split a in
  (* After splitting, advancing [b] must not disturb [a]'s stream
     relative to a replay. *)
  let a' = Rng.make 5 in
  let _ = Rng.split a' in
  ignore (Rng.bits64 b);
  check Alcotest.int64 "parent stream unaffected by child" (Rng.bits64 a)
    (Rng.bits64 a')

let test_rng_copy () =
  let a = Rng.make 11 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues the stream" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_uniformity () =
  let rng = Rng.make 123 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      checkb "bucket within 10% of expectation" true
        (abs (c - (n / 10)) < n / 100))
    buckets

let test_rng_chance_extremes () =
  let rng = Rng.make 3 in
  checkb "p=0 never" false (Rng.chance rng 0.0);
  checkb "p=1 always" true (Rng.chance rng 1.0)

let test_rng_shuffle_permutation () =
  let rng = Rng.make 17 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_pick_member () =
  let rng = Rng.make 23 in
  let a = [| 2; 4; 8 |] in
  for _ = 1 to 50 do
    checkb "pick returns a member" true (Array.mem (Rng.pick rng a) a)
  done

(* SplitMix64, bit for bit: per seed, a raw draw, [int] at two bounds, a
   [float]'s bits, then a split's first raw draw and [int], and the
   parent's next raw draw; then [int] near the top of the range, where
   rejection redraws (twice in these sixteen), and a checksum over 21
   seeds of 10,000 mixed [int]/[float]/[split]/[chance] draws. The
   constants were recorded from the generator when its state was a boxed
   [int64] field. *)
let test_rng_pinned () =
  List.iter
    (fun (seed, raw, i6, i7, fl, split_raw, split_int, raw') ->
      let t = Rng.make seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      check Alcotest.int64 (name "raw") raw (Rng.bits64 t);
      checki (name "int 1e6") i6 (Rng.int t 1_000_000);
      checki (name "int 7") i7 (Rng.int t 7);
      check Alcotest.int64 (name "float") fl
        (Int64.bits_of_float (Rng.float t 1.0));
      let s = Rng.split t in
      check Alcotest.int64 (name "split raw") split_raw (Rng.bits64 s);
      checki (name "split int") split_int (Rng.int s 1000);
      check Alcotest.int64 (name "raw after split") raw' (Rng.bits64 t))
    [
      (0, 0xe220a8397b1dcdafL, 177850, 4, 0x3fef1177150e4990L,
       0xf45cca6d3670ffc3L, 581, 0x53cb9f0c747ea2eaL);
      (1, 0xbfef8030ddc2d772L, 333347, 2, 0x3fee881fc76c58f3L,
       0x34b7e0300fa7d8beL, 188, 0x98843f48a94b7866L);
      (3, 0xd0bb866aae328182L, 647368, 4, 0x3fea66ead5121059L,
       0xe9ad9442902bb5a0L, 675, 0xb88f26fcc93054abL);
      (11, 0xa06e94f7a6c27ddL, 857992, 5, 0x3fe64f00ecd3a05aL,
       0x1a4f3ede4bf14053L, 414, 0xb990c39ffb1d3786L);
      (42, 0x989b3f130a063869L, 95595, 0, 0x3fa896d649de0310L,
       0x5cba4671d75004d3L, 362, 0x3c30fc5fd50692c3L);
      (-7, 0xa39b91cb5ecb1a80L, 594324, 2, 0x3fd86b9d1c56630cL,
       0xb7fe307fb65bc456L, 446, 0x4590305d0928c0efL);
      (max_int, 0x2de2ce032c245fa7L, 249622, 6, 0x3fe92e245b8bb29cL,
       0x1987ecbe9ddcd944L, 153, 0x854a3ddf1ed989e5L);
    ];
  let t = Rng.make 11 in
  check
    Alcotest.(list int)
    "near the top of the range"
    [
      361260658902569966; 1055094977129947669; 1980634202443353427;
      2740669621887448275; 147353871713079039; 2996352378029697168;
      1174950866574848034; 3180912002789483202; 2010893465706618743;
      2609216891276829760; 3468474840810594642; 74049403454061405;
      3092830403172791974; 818388627353693467; 1551715833251764808;
      3015142208717323131;
    ]
    (List.init 16 (fun _ -> Rng.int t 3_689_348_814_741_910_323));
  let acc = ref 0L in
  for seed = 0 to 20 do
    let t = ref (Rng.make seed) in
    for i = 1 to 10_000 do
      let x =
        match i mod 4 with
        | 0 -> Int64.of_int (Rng.int !t (1 + (i * 7919 mod 100_000)))
        | 1 -> Int64.bits_of_float (Rng.float !t 3.0)
        | 2 ->
            t := Rng.split !t;
            Rng.bits64 !t
        | _ -> if Rng.chance !t 0.3 then 1L else 0L
      in
      acc := Int64.add (Int64.mul !acc 31L) x
    done
  done;
  check Alcotest.int64 "mixed-stream checksum" 0x6781e6e45978249cL !acc

(* The state is unboxed, and [int]'s rejection loop is no closure. *)
let test_rng_int_allocates_nothing () =
  let t = Rng.make 5 in
  ignore (Rng.int t 1000);
  let before = Gc.minor_words () in
  for bound = 1 to 10_000 do
    ignore (Sys.opaque_identity (Rng.int t bound))
  done;
  check (Alcotest.float 0.) "minor words" 0. (Gc.minor_words () -. before)

(* --- Zipf --- *)

let test_zipf_uniform_theta0 () =
  let z = Zipf.make ~n:4 ~theta:0.0 in
  for i = 0 to 3 do
    check (Alcotest.float 1e-9) "uniform probability" 0.25 (Zipf.probability z i)
  done

let test_zipf_skew_orders_ranks () =
  let z = Zipf.make ~n:100 ~theta:1.0 in
  for i = 0 to 98 do
    checkb "monotone decreasing" true
      (Zipf.probability z i >= Zipf.probability z (i + 1))
  done

let test_zipf_probabilities_sum_to_one () =
  let z = Zipf.make ~n:37 ~theta:0.7 in
  let total = ref 0.0 in
  for i = 0 to 36 do
    total := !total +. Zipf.probability z i
  done;
  check (Alcotest.float 1e-9) "sums to 1" 1.0 !total

let test_zipf_sample_range_and_skew () =
  let z = Zipf.make ~n:10 ~theta:1.2 in
  let rng = Rng.make 99 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let i = Zipf.sample z rng in
    checkb "in range" true (i >= 0 && i < 10);
    counts.(i) <- counts.(i) + 1
  done;
  checkb "rank 0 hottest" true (counts.(0) > counts.(9))

let test_zipf_empirical_matches_theory () =
  let z = Zipf.make ~n:5 ~theta:0.8 in
  let rng = Rng.make 4 in
  let n = 50_000 in
  let counts = Array.make 5 0 in
  for _ = 1 to n do
    let i = Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  for i = 0 to 4 do
    let expected = Zipf.probability z i *. float_of_int n in
    checkb "within 5%" true
      (Float.abs (float_of_int counts.(i) -. expected) < 0.05 *. float_of_int n)
  done

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.make: n must be positive")
    (fun () -> ignore (Zipf.make ~n:0 ~theta:1.0));
  List.iter
    (fun theta ->
      Alcotest.check_raises (Printf.sprintf "theta=%g" theta)
        (Invalid_argument "Zipf.make: theta must be non-negative")
        (fun () -> ignore (Zipf.make ~n:4 ~theta)))
    [ -1.0; Float.nan ]

(* --- Stats --- *)

let test_stats_percentile () =
  let data = [| 10.0; 20.0; 30.0; 40.0 |] in
  check (Alcotest.float 1e-9) "p0" 10.0 (Stats.percentile data 0.0);
  check (Alcotest.float 1e-9) "p100" 40.0 (Stats.percentile data 100.0);
  check (Alcotest.float 1e-9) "median interpolates" 25.0 (Stats.median data)

let test_stats_percentile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty data")
    (fun () -> ignore (Stats.percentile [||] 50.0))

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h ~priority:p v)
    [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ];
  let order = List.init 5 (fun _ -> match Heap.pop h with
    | Some (_, v) -> v | None -> assert false) in
  check Alcotest.(list string) "sorted by priority" [ "a"; "b"; "c"; "d"; "e" ] order

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~priority:7 v) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> match Heap.pop h with
    | Some (_, v) -> v | None -> assert false) in
  check Alcotest.(list string) "ties pop in insertion order" [ "x"; "y"; "z" ] order

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  checkb "empty" true (Heap.is_empty h);
  checkb "pop none" true (Heap.pop h = None);
  checkb "peek none" true (Heap.peek h = None)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~priority:10 1;
  Heap.push h ~priority:5 2;
  checkb "peek min" true (Heap.peek h = Some (5, 2));
  checkb "pop min" true (Heap.pop h = Some (5, 2));
  Heap.push h ~priority:1 3;
  checkb "pop new min" true (Heap.pop h = Some (1, 3));
  checkb "pop last" true (Heap.pop h = Some (10, 1));
  checkb "now empty" true (Heap.is_empty h)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~priority:1 "a";
  Heap.push h ~priority:2 "b";
  Heap.clear h;
  checkb "empty after clear" true (Heap.is_empty h);
  checki "size 0" 0 (Heap.size h);
  Heap.push h ~priority:5 "c";
  checkb "usable after clear" true (Heap.pop h = Some (5, "c"))

let test_heap_qcheck_sorted_drain =
  QCheck.Test.make ~name:"heap drains in nondecreasing priority" ~count:200
    QCheck.(list (int_bound 1000))
    (fun priorities ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~priority:p i) priorities;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain min_int)

(* --- Dense --- *)

(* qcheck: Pqueue pops in exactly Heap's order — same priorities, same
   tie-break by push sequence — so the scheduler's event loop is
   order-identical on either queue. Pops are interleaved with pushes to
   exercise ties created across drain boundaries. *)
let test_pqueue_qcheck_matches_heap =
  QCheck.Test.make ~name:"dense pqueue pops in Heap order" ~count:300
    QCheck.(list (pair (option (int_bound 20)) (int_bound 1000)))
    (fun script ->
      let q = Dense.Pqueue.create () and h = Heap.create () in
      let seq = ref 0 in
      let pops_agree () =
        match Heap.pop h with
        | None -> not (Dense.Pqueue.pop q)
        | Some (prio, (tag, a, b)) ->
            Dense.Pqueue.pop q
            && Dense.Pqueue.cur_prio q = prio
            && Dense.Pqueue.cur_tag q = tag
            && Dense.Pqueue.cur_a q = a
            && Dense.Pqueue.cur_b q = b
      in
      List.for_all
        (fun (pop, prio) ->
          if pop = None then begin
            let tag = !seq mod 6 and a = !seq - 500 and b = !seq * 3 in
            incr seq;
            Dense.Pqueue.push q ~priority:prio ~tag ~a ~b;
            Heap.push h ~priority:prio (tag, a, b);
            Dense.Pqueue.size q = Heap.size h
          end
          else pops_agree ())
        script
      &&
      (* drain the rest; the final iteration checks both report empty *)
      let rec drain () =
        if Heap.is_empty h then not (Dense.Pqueue.pop q)
        else pops_agree () && drain ()
      in
      drain ())

(* --- Table --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1))
  in
  scan 0

let test_table_renders () =
  let t = Table.create ~title:"demo" [ ("k", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  checkb "contains title" true (String.length s > 4 && String.sub s 0 4 = "demo");
  checkb "alpha present" true (contains s "alpha");
  checkb "right-aligned 22" true (contains s "| 22 |")

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "pct" "12.5%" (Table.cell_pct 0.125);
  Alcotest.(check string) "ratio" "2.50x" (Table.cell_ratio 2.5);
  Alcotest.(check string) "nan" "-" (Table.cell_float nan)

let () =
  Alcotest.run "prb_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick member" `Quick test_rng_pick_member;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned;
          Alcotest.test_case "int allocates nothing" `Quick
            test_rng_int_allocates_nothing;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "theta 0 uniform" `Quick test_zipf_uniform_theta0;
          Alcotest.test_case "skew monotone" `Quick test_zipf_skew_orders_ranks;
          Alcotest.test_case "probabilities sum" `Quick test_zipf_probabilities_sum_to_one;
          Alcotest.test_case "sample range and skew" `Slow test_zipf_sample_range_and_skew;
          Alcotest.test_case "empirical matches theory" `Slow test_zipf_empirical_matches_theory;
          Alcotest.test_case "invalid" `Quick test_zipf_invalid;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile invalid" `Quick test_stats_percentile_invalid;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          QCheck_alcotest.to_alcotest test_heap_qcheck_sorted_drain;
        ] );
      ( "dense",
        [
          QCheck_alcotest.to_alcotest test_pqueue_qcheck_matches_heap;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "cell formats" `Quick test_table_cells;
        ] );
    ]
