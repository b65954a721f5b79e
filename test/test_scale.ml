(* Tests for the E13 regression gate in Prb_bench_scale: the JSON it
   writes and reads back, and the floors and ceilings it enforces. No
   sweep runs here; every point is built by hand. *)

module Scale = Prb_bench_scale.Scale

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let point ?(engine = "central") ?(txns = 100) ?(contention = "low")
    ?(policy = "eager") ?(outage = false) ~commits_per_sec ~allocated_mwords
    () : Scale.point =
  {
    engine;
    policy;
    outage;
    txns;
    contention;
    entities = 800;
    theta = 0.0;
    mpl = 16;
    commits = txns;
    ticks = 193;
    deadlocks = 0;
    rollbacks = 0;
    wall_seconds = 0.0025;
    commits_per_sec;
    check_seconds = 0.0;
    check_share = nan;
    check_calls = 26;
    enumerate_seconds = 0.0;
    enumerate_share = nan;
    enumerate_calls = 0;
    detection_passes = 0;
    watchdog_fires = 0;
    max_blocked_ticks = 18;
    allocated_mwords;
  }

let with_file f =
  let path = Filename.temp_file "prb_scale" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_raw path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let same_float a b = (Float.is_nan a && Float.is_nan b) || a = b

let test_round_trip () =
  let points =
    [
      point ~commits_per_sec:36510.3 ~allocated_mwords:0.080332 ();
      point ~engine:"distrib" ~txns:500 ~contention:"high"
        ~commits_per_sec:nan ~allocated_mwords:nan ();
    ]
  in
  with_file (fun path ->
      Scale.write_json ~path ~quick:true points;
      let loaded = Scale.load ~path in
      checki "every point read back" 2 (List.length loaded);
      List.iter2
        (fun (p : Scale.point) (g : Scale.gate_point) ->
          checks "engine" p.engine g.engine;
          checki "txns" p.txns g.txns;
          checks "contention" p.contention g.contention;
          checkb "commits/s" true
            (same_float p.commits_per_sec g.commits_per_sec);
          checkb "allocated Mwords" true
            (same_float p.allocated_mwords g.allocated_mwords))
        points loaded;
      checkb "NaN comes back as NaN" true
        (Float.is_nan (List.nth loaded 1).allocated_mwords))

let test_nan_written_as_null () =
  with_file (fun path ->
      Scale.write_json ~path
        [ point ~commits_per_sec:1.0 ~allocated_mwords:nan () ];
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let contains needle =
        let n = String.length needle in
        let rec scan i =
          i + n <= String.length text
          && (String.equal (String.sub text i n) needle || scan (i + 1))
        in
        scan 0
      in
      checkb "null, not nan" true (contains "\"allocated_mwords\": null");
      checkb "no bare nan" false (contains "nan"))

(* A baseline of 1000 commits/s and 1.0 Mwords, gated at tolerance 0.2. *)
let gate ?(baseline_txns = 100) ~commits_per_sec ~allocated_mwords () =
  let baseline : Scale.gate_point list =
    [
      {
        engine = "central";
        txns = baseline_txns;
        contention = "low";
        commits_per_sec = 1000.0;
        allocated_mwords = 1.0;
      };
    ]
  in
  Scale.compare_against ~tolerance:0.2 ~baseline
    [ point ~commits_per_sec ~allocated_mwords () ]

let test_throughput_drop_fails () =
  let failures, compared =
    gate ~commits_per_sec:750.0 ~allocated_mwords:1.0 ()
  in
  checki "compared" 1 compared;
  checki "one failure" 1 (List.length failures)

let test_allocation_rise_fails () =
  let failures, compared =
    gate ~commits_per_sec:1000.0 ~allocated_mwords:1.25 ()
  in
  checki "compared" 1 compared;
  checki "one failure" 1 (List.length failures)

let test_inside_tolerance_passes () =
  let failures, compared =
    gate ~commits_per_sec:850.0 ~allocated_mwords:1.15 ()
  in
  checki "compared" 1 compared;
  checki "no failure" 0 (List.length failures)

let test_unmatched_skipped () =
  let failures, compared =
    gate ~baseline_txns:5000 ~commits_per_sec:1.0 ~allocated_mwords:99.0 ()
  in
  checki "nothing compared" 0 compared;
  checki "no failure" 0 (List.length failures)

let test_counts_compared_points () =
  let current =
    [
      point ~commits_per_sec:1000.0 ~allocated_mwords:1.0 ();
      point ~txns:500 ~commits_per_sec:1000.0 ~allocated_mwords:1.0 ();
    ]
  in
  with_file (fun path ->
      Scale.write_json ~path
        (current
        @ [
            point ~engine:"distrib" ~txns:5000 ~commits_per_sec:1.0
              ~allocated_mwords:1.0 ();
          ]);
      let baseline = Scale.load ~path in
      let failures, compared =
        Scale.compare_against ~tolerance:0.2 ~baseline current
      in
      checki "two of three baseline points matched" 2 compared;
      checki "no failure" 0 (List.length failures))

let test_versionless_rejected () =
  with_file (fun path ->
      write_raw path
        "{\"points\": [{\"engine\": \"central\", \"txns\": 100, \
         \"contention\": \"low\", \"commits_per_sec\": 1.0, \
         \"allocated_mwords\": 1.0}]}";
      checkb "Parse_error" true
        (match Scale.load ~path with
        | _ -> false
        | exception Scale.Parse_error _ -> true))

let test_policy_points_skipped () =
  with_file (fun path ->
      Scale.write_json ~path
        ~policies:
          [
            point ~policy:"periodic:32" ~outage:true ~txns:500
              ~commits_per_sec:2.0 ~allocated_mwords:nan ();
          ]
        [ point ~commits_per_sec:1.0 ~allocated_mwords:1.0 () ];
      let loaded = Scale.load ~path in
      checki "only the E13 point" 1 (List.length loaded);
      checki "its txns" 100 (List.hd loaded).txns)

let () =
  Alcotest.run "prb_bench_scale"
    [
      ( "scale json",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "nan written as null" `Quick
            test_nan_written_as_null;
          Alcotest.test_case "versionless file rejected" `Quick
            test_versionless_rejected;
          Alcotest.test_case "policy points skipped" `Quick
            test_policy_points_skipped;
        ] );
      ( "scale gate",
        [
          Alcotest.test_case "25% throughput drop fails" `Quick
            test_throughput_drop_fails;
          Alcotest.test_case "25% allocation rise fails" `Quick
            test_allocation_rise_fails;
          Alcotest.test_case "inside tolerance passes" `Quick
            test_inside_tolerance_passes;
          Alcotest.test_case "unmatched point skipped" `Quick
            test_unmatched_skipped;
          Alcotest.test_case "counts compared points" `Quick
            test_counts_compared_points;
        ] );
    ]
