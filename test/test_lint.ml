(* Tests for Prb_lint: fixture rule firing, suppression, context mapping,
   clean-tree scan, and an in-process double-run determinism check (the
   property the analyzer exists to protect). *)

module Lint = Prb_lint.Lint
module Deep = Prb_lint.Lint_deep
module Sim = Prb_sim.Sim
module Generator = Prb_workload.Generator

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

let fixture name = Filename.concat "lint_fixtures" name

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let rule_ids_of_file path =
  match Lint.check_file path with
  | Ok vs -> List.map (fun (v : Lint.violation) -> Lint.rule_id v.rule) vs
  | Error e -> Alcotest.failf "parse error in %s: %s" path e

(* --- Fixtures: each violating fixture fires exactly its rule ---------- *)

let test_fixture_rules () =
  let expect = [
    ("core__d1_hashtbl_iter.ml", [ "D1" ]);
    ("core__d2_poly_compare.ml", [ "D2" ]);
    ("sim__d3_ambient_random.ml", [ "D3"; "D3" ]);
    ("sim__d3_wallclock.ml", [ "D3" ]);
    ("core__l1_layering.ml", [ "L1" ]);
    ("distrib__l2_catch_all.ml", [ "L2" ]);
    ("core__l3_request_path.ml", [ "L3" ]);
    ("core__allow_suppression.ml", []);
    ("clean__ok.ml", []);
  ]
  in
  List.iter
    (fun (name, rules) -> check_sl name rules (rule_ids_of_file (fixture name)))
    expect

let test_fixture_positions () =
  (* violations carry a clickable file:line:col and a greppable rule id *)
  match Lint.check_file (fixture "core__d1_hashtbl_iter.ml") with
  | Error e -> Alcotest.fail e
  | Ok [ v ] ->
      checki "line" 4 v.line;
      checkb "col set" true (v.col >= 0);
      let rendered = Fmt.str "%a" Lint.pp_violation v in
      checkb "rendered has rule id" true (contains ~affix:" D1 " rendered);
      checkb "rendered has position" true (contains ~affix:":4:" rendered)
  | Ok vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_rules_filter () =
  (* --rules narrows which rules fire *)
  match
    Lint.check_file ~rules:[ Lint.D2 ] (fixture "core__d1_hashtbl_iter.ml")
  with
  | Ok vs -> checki "D1 fixture clean under rules=[D2]" 0 (List.length vs)
  | Error e -> Alcotest.fail e

let test_context_of_path () =
  let c = Lint.context_of_path "lib/core/scheduler.ml" in
  checkb "core replay-critical" true c.replay_critical;
  checks "core lib" "core" (Option.get c.lib);
  let s = Lint.context_of_path "lib/bench_scale/scale.ml" in
  checkb "bench_scale is the clock provider" true s.clock_provider;
  checkb "bench_scale not replay-critical" false s.replay_critical;
  let d = Lint.context_of_path "lib/distrib/dist_scheduler.ml" in
  checkb "distrib gets L2" true d.distrib;
  let f = Lint.context_of_path "test/lint_fixtures/wfg__x.ml" in
  checks "fixture marker wins" "wfg" (Option.get f.lib);
  checkb "fixture marker replay-critical" true f.replay_critical

let test_rule_id_roundtrip () =
  List.iter
    (fun r ->
      match Lint.rule_of_id (Lint.rule_id r) with
      | Some r' -> checkb "roundtrip" true (r = r')
      | None -> Alcotest.fail "rule_of_id failed on rule_id output")
    Lint.all_rules

let test_json_shape () =
  match Lint.check_file (fixture "core__d2_poly_compare.ml") with
  | Ok [ v ] ->
      let j = Lint.violation_json v in
      checkb "json mentions rule" true (contains ~affix:{|"rule":"D2"|} j);
      checkb "json mentions line" true (contains ~affix:{|"line":|} j)
  | Ok vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)
  | Error e -> Alcotest.fail e

let test_report_json () =
  (* the --json report: versioned envelope, findings sorted by
     (file, line, rule id) regardless of input order *)
  let v file line rule = { Lint.file; line; col = 0; rule; message = "m" } in
  let j =
    Lint.report_json
      [ v "b.ml" 3 Lint.D1; v "a.ml" 9 Lint.D2; v "a.ml" 2 Lint.H1 ]
  in
  checkb "has schema_version" true
    (contains
       ~affix:(Printf.sprintf {|"schema_version":%d|} Lint.schema_version)
       j);
  let pos affix =
    let n = String.length affix and m = String.length j in
    let rec at i =
      if i + n > m then Alcotest.failf "report lacks %s" affix
      else if String.sub j i n = affix then i
      else at (i + 1)
    in
    at 0
  in
  checkb "a.ml:2 before a.ml:9" true (pos {|"line":2|} < pos {|"line":9|});
  checkb "a.ml before b.ml" true (pos {|"line":9|} < pos {|"line":3|})

(* --- Deep (typed) fixtures -------------------------------------------- *)

let deep_fixture name = fixture (Filename.concat "deep" name)

let deep_rule_ids_of_file path =
  match Deep.check_file path with
  | Ok vs -> List.map (fun (v : Lint.violation) -> Lint.rule_id v.rule) vs
  | Error e -> Alcotest.failf "typecheck error in %s: %s" path e

let test_deep_fixture_rules () =
  let expect = [
    ("clean__hot_ok.ml", []);
    ("core__a1_tick_alloc.ml", [ "A1" ]);
    ("core__a1_two_calls_deep.ml", [ "A1" ]);
    ("core__a1_find_opt.ml", [ "A1"; "A2" ]);
    ("core__a2_hot_hash.ml", [ "A2" ]);
    ("core__deep_allow_ok.ml", []);
    ("core__deep_allow_norationale.ml", [ "A1" ]);
    ("core__p1_acquire_after_release.ml", [ "P1"; "P1" ]);
    ("core__p1_rollback_ok.ml", []);
    ("wfg__h1_unsafe_get.ml", [ "H1" ]);
  ]
  in
  List.iter
    (fun (name, rules) ->
      check_sl name rules (deep_rule_ids_of_file (deep_fixture name)))
    expect

let test_deep_call_graph_closure () =
  (* the allocation sits two repo-local calls below the [@hot] root; the
     finding must exist and carry the tick -> mid provenance chain *)
  match Deep.check_file (deep_fixture "core__a1_two_calls_deep.ml") with
  | Error e -> Alcotest.fail e
  | Ok [ v ] ->
      checkb "is A1" true (v.rule = Lint.A1);
      checkb "chain names the hot root" true (contains ~affix:"tick" v.message);
      checkb "chain names the intermediate" true
        (contains ~affix:"mid" v.message)
  | Ok vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_deep_allow_needs_rationale () =
  match Deep.check_file (deep_fixture "core__deep_allow_norationale.ml") with
  | Error e -> Alcotest.fail e
  | Ok [ v ] ->
      checkb "explains the rationale requirement" true
        (contains ~affix:"rationale" v.message)
  | Ok vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_deep_inline_source () =
  (* check_source analyzes source text directly; the file name's fixture
     marker pins the context *)
  match
    Deep.check_source ~file:"core__inline.ml"
      "let box x = Some x\nlet[@hot] f x = box x"
  with
  | Error e -> Alcotest.fail e
  | Ok [ v ] -> checkb "inline A1" true (v.rule = Lint.A1)
  | Ok vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* --- The real tree is clean ------------------------------------------- *)

let test_tree_clean () =
  (* the test binary runs in _build/default/test; the dune deps pull the
     real sources in next door *)
  let roots = List.filter Sys.file_exists [ "../lib"; "../bin"; "../bench" ] in
  checkb "sources staged for the scan" true (roots <> []);
  let violations, errors = Lint.scan roots in
  List.iter (fun (f, e) -> Fmt.epr "parse error: %s: %s@." f e) errors;
  List.iter (fun v -> Fmt.epr "%a@." Lint.pp_violation v) violations;
  checki "parse errors" 0 (List.length errors);
  checki "violations in lib/, bin/ and bench/" 0 (List.length violations)

let test_protocol_ctors_current () =
  (* L2 pattern-matches on constructor names; if Dist_scheduler.event grows
     a variant this list must grow with it. Probe each name through a
     fixture-context match to prove the analyzer still recognises it. *)
  List.iter
    (fun ctor ->
      let src =
        Fmt.str "let f x = match x with %s -> 1 | Req_arrive _ -> 2 | _ -> 0"
          (if String.equal ctor "Req_arrive" then "Req_arrive _" else ctor ^ " _")
      in
      match
        Lint.check_source
          ~context:(Lint.context_of_path "lib/distrib/x.ml")
          ~file:"probe.ml" src
      with
      | Ok vs ->
          checkb (ctor ^ " triggers L2 scrutiny") true
            (List.exists (fun (v : Lint.violation) -> v.rule = Lint.L2) vs)
      | Error e -> Alcotest.fail e)
    [
      "Exec"; "Detector"; "Req_arrive"; "Req_timeout"; "Grant_arrive";
      "Release_arrive"; "Release_retry"; "Crash"; "Recover";
    ]

(* --- Double-run determinism ------------------------------------------- *)

let test_double_run_identical () =
  (* the property all the D-rules protect: running the same seeded
     simulation twice in one process yields byte-identical results *)
  let run () =
    Sim.run_generated ~params:Generator.default_params ~seed:1234 ~n_txns:60 ()
  in
  let a = run () and b = run () in
  checks "rendered results identical"
    (Fmt.str "%a" Sim.pp_result a)
    (Fmt.str "%a" Sim.pp_result b);
  checkb "stats equal" true (a.stats = b.stats);
  checkb "serializable" true (a.serializable && b.serializable)

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "each fixture fires exactly its rule" `Quick
            test_fixture_rules;
          Alcotest.test_case "positions and rendering" `Quick
            test_fixture_positions;
          Alcotest.test_case "rules filter" `Quick test_rules_filter;
        ] );
      ( "engine",
        [
          Alcotest.test_case "context_of_path" `Quick test_context_of_path;
          Alcotest.test_case "rule id roundtrip" `Quick test_rule_id_roundtrip;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "json report sorted and versioned" `Quick
            test_report_json;
          Alcotest.test_case "protocol ctor list is live" `Quick
            test_protocol_ctors_current;
        ] );
      ( "deep",
        [
          Alcotest.test_case "each deep fixture fires exactly its rule" `Quick
            test_deep_fixture_rules;
          Alcotest.test_case "call-graph closure with provenance" `Quick
            test_deep_call_graph_closure;
          Alcotest.test_case "allow without rationale rejected" `Quick
            test_deep_allow_needs_rationale;
          Alcotest.test_case "inline source analysis" `Quick
            test_deep_inline_source;
        ] );
      ( "tree",
        [ Alcotest.test_case "lib/ and bin/ are clean" `Quick test_tree_clean ]
      );
      ( "determinism",
        [
          Alcotest.test_case "double run is byte-identical" `Quick
            test_double_run_identical;
        ] );
    ]
