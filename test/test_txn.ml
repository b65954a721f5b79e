(* Tests for Prb_txn: lock modes, the expression language, programs —
   validation, lock-index analysis, structure transforms. *)

module Value = Prb_storage.Value
module Lock_mode = Prb_txn.Lock_mode
module Expr = Prb_txn.Expr
module Program = Prb_txn.Program

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Lock_mode --- *)

let test_compatibility () =
  checkb "S/S" true (Lock_mode.compatible Lock_mode.Shared Lock_mode.Shared);
  checkb "S/X" false (Lock_mode.compatible Lock_mode.Shared Lock_mode.Exclusive);
  checkb "X/S" false (Lock_mode.compatible Lock_mode.Exclusive Lock_mode.Shared);
  checkb "X/X" false (Lock_mode.compatible Lock_mode.Exclusive Lock_mode.Exclusive)

(* --- Expr --- *)

let env bindings v = List.assoc v bindings

let test_expr_eval () =
  let e = Expr.(var "x" + (int 3 * var "y") - int 1) in
  let result = Expr.eval (env [ ("x", Value.int 10); ("y", Value.int 2) ]) e in
  checkb "10 + 6 - 1" true (Value.equal result (Value.int 15))

let test_expr_min_max_neg () =
  let ev x = Expr.eval (env []) x in
  checkb "min" true (Value.equal (ev (Expr.Min (Expr.int 2, Expr.int 5))) (Value.int 2));
  checkb "max" true (Value.equal (ev (Expr.Max (Expr.int 2, Expr.int 5))) (Value.int 5));
  checkb "neg" true (Value.equal (ev (Expr.Neg (Expr.int 4))) (Value.int (-4)))

let test_expr_mix_deterministic () =
  let ev x = Expr.eval (env []) x in
  checkb "deterministic" true
    (Value.equal (ev (Expr.Mix (Expr.int 5))) (ev (Expr.Mix (Expr.int 5))))

let test_expr_vars () =
  let e = Expr.(Mix (var "b") + var "a" + var "b") in
  Alcotest.(check (list string)) "sorted unique" [ "a"; "b" ] (Expr.vars e)

let test_expr_equal () =
  checkb "structural" true Expr.(equal (var "x" + int 1) (var "x" + int 1));
  checkb "different" false Expr.(equal (var "x" + int 1) (var "x" + int 2));
  checkb "op matters" false Expr.(equal (var "x" + int 1) (var "x" - int 1))

(* --- Program construction and validation --- *)

let valid_program () =
  Program.make ~name:"ok"
    ~locals:[ ("v", Value.int 0) ]
    [
      Program.lock_x "a";
      Program.read "a" "v";
      Program.write "a" Expr.(var "v" + int 1);
      Program.lock_s "b";
      Program.read "b" "v";
      Program.unlock "a";
      Program.unlock "b";
    ]

let test_validate_ok () =
  checkb "valid" true (Program.validate (valid_program ()) = Ok ())

let expect_violation program violation =
  match Program.validate program with
  | Ok () -> Alcotest.fail "expected violation"
  | Error vs ->
      checkb "violation found" true (List.exists (fun (_, v) -> v = violation) vs)

let test_validate_two_phase () =
  let p =
    Program.make ~name:"2pl" ~locals:[]
      [ Program.lock_x "a"; Program.unlock "a"; Program.lock_x "b" ]
  in
  expect_violation p Program.Lock_after_unlock

let test_validate_relock () =
  let p =
    Program.make ~name:"relock" ~locals:[]
      [ Program.lock_x "a"; Program.lock_x "a" ]
  in
  expect_violation p (Program.Already_locked "a")

let test_validate_unlock_not_held () =
  let p = Program.make ~name:"u" ~locals:[] [ Program.unlock "a" ] in
  expect_violation p (Program.Unlock_not_held "a")

let test_validate_read_without_lock () =
  let p =
    Program.make ~name:"r" ~locals:[ ("v", Value.int 0) ] [ Program.read "a" "v" ]
  in
  expect_violation p (Program.Read_without_lock "a")

let test_validate_write_without_x () =
  let shared =
    Program.make ~name:"w" ~locals:[]
      [ Program.lock_s "a"; Program.write "a" (Expr.int 1) ]
  in
  expect_violation shared (Program.Write_without_exclusive "a");
  let unlocked =
    Program.make ~name:"w2" ~locals:[] [ Program.write "a" (Expr.int 1) ]
  in
  expect_violation unlocked (Program.Write_without_exclusive "a")

let test_validate_undeclared_var () =
  let p =
    Program.make ~name:"v" ~locals:[] [ Program.assign "ghost" (Expr.int 1) ]
  in
  expect_violation p (Program.Undeclared_variable "ghost");
  let p2 =
    Program.make ~name:"v2" ~locals:[]
      [ Program.lock_x "a"; Program.write "a" (Expr.var "ghost") ]
  in
  expect_violation p2 (Program.Undeclared_variable "ghost")

let test_make_duplicate_local () =
  Alcotest.check_raises "duplicate local"
    (Invalid_argument "Program.make: duplicate local variable") (fun () ->
      ignore
        (Program.make ~name:"d"
           ~locals:[ ("v", Value.int 0); ("v", Value.int 1) ]
           []))

(* --- Lock indices and analysis --- *)

(* lock A; w A; lock B; assign; w A; lock C; w C *)
let analysis_program () =
  Program.make ~name:"an"
    ~locals:[ ("v", Value.int 0) ]
    [
      Program.lock_x "A";
      Program.write "A" (Expr.int 1);
      Program.lock_x "B";
      Program.assign "v" (Expr.int 2);
      Program.write "A" (Expr.int 3);
      Program.lock_x "C";
      Program.write "C" (Expr.int 4);
    ]

let test_lock_indices () =
  let p = analysis_program () in
  checki "n_locks" 3 (Program.n_locks p);
  checki "op 0 (lock A) idx" 0 (Program.lock_index_of_op p 0);
  checki "op 1 (write A) idx" 1 (Program.lock_index_of_op p 1);
  checki "op 4 (write A again) idx" 2 (Program.lock_index_of_op p 4);
  checki "op 6 (write C) idx" 3 (Program.lock_index_of_op p 6);
  checki "lock 1 position" 2 (Program.lock_op_position p 1);
  checkb "lock_at 2" true (Program.lock_at p 2 = (Lock_mode.Exclusive, "C"));
  checkb "lock state of B" true (Program.lock_state_of_entity p "B" = Some 1);
  checkb "lock state of missing" true (Program.lock_state_of_entity p "z" = None);
  checkb "last lock position" true (Program.last_lock_position p = Some 5)

let test_write_profile_and_damage () =
  let p = analysis_program () in
  let profile = Program.write_profile p in
  checkb "A written in segments 1 and 2" true
    (List.assoc "G:A" profile = [ 1; 2 ]);
  checkb "C written once" true (List.assoc "G:C" profile = [ 3 ]);
  checkb "local v" true (List.assoc "L:v" profile = [ 2 ]);
  checki "damage span = A's spread" 1 (Program.damage_span p)

let test_three_phase_detection () =
  checkb "analysis program is not three-phase" false
    (Program.is_three_phase (analysis_program ()));
  let tp =
    Program.make ~name:"tp" ~locals:[]
      [
        Program.lock_x "A";
        Program.lock_x "B";
        Program.write "A" (Expr.int 1);
        Program.write "B" (Expr.int 2);
        Program.unlock "A";
        Program.unlock "B";
      ]
  in
  checkb "three-phase" true (Program.is_three_phase tp)

(* --- Transforms --- *)

(* Evaluate a program sequentially against a store and return the final
   store plus local values — the semantics oracle for reorderings. *)
let run_sequential program store_bindings =
  let store = Hashtbl.create 8 in
  List.iter (fun (e, v) -> Hashtbl.replace store e v) store_bindings;
  let locals = Hashtbl.create 8 in
  List.iter (fun (v, x) -> Hashtbl.replace locals v x) program.Program.locals;
  let env v = Hashtbl.find locals v in
  Array.iter
    (fun op ->
      match op with
      | Program.Lock _ | Program.Unlock _ -> ()
      | Program.Read (e, v) -> Hashtbl.replace locals v (Hashtbl.find store e)
      | Program.Write (e, x) -> Hashtbl.replace store e (Expr.eval env x)
      | Program.Assign (v, x) -> Hashtbl.replace locals v (Expr.eval env x))
    program.Program.ops;
  let dump tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  (dump store, dump locals)

let spread_program () =
  Program.make ~name:"spread"
    ~locals:[ ("v", Value.int 0); ("w", Value.int 0) ]
    [
      Program.lock_x "A";
      Program.read "A" "v";
      Program.write "A" Expr.(var "v" + int 1);
      Program.lock_x "B";
      Program.read "B" "w";
      Program.write "B" Expr.(var "w" + int 2);
      Program.lock_x "C";
      Program.write "A" Expr.(var "v" + int 10);
      Program.lock_x "D";
      Program.write "B" Expr.(var "w" + int 20);
      Program.write "A" Expr.(var "v" + int 100);
    ]

let test_cluster_writes_preserves_semantics () =
  let p = spread_program () in
  let q = Program.cluster_writes p in
  let bindings =
    [ ("A", Value.int 5); ("B", Value.int 7); ("C", Value.int 0); ("D", Value.int 0) ]
  in
  checkb "same final state" true
    (run_sequential p bindings = run_sequential q bindings);
  checkb "still valid" true (Program.validate q = Ok ())

let test_cluster_writes_reduces_damage () =
  let p = spread_program () in
  let q = Program.cluster_writes p in
  checkb "damage reduced" true (Program.damage_span q < Program.damage_span p);
  checki "perfectly clustered here" 0 (Program.damage_span q)

let test_cluster_writes_respects_dependencies () =
  (* A read of the entity sits between two writes: they must not merge. *)
  let p =
    Program.make ~name:"dep"
      ~locals:[ ("v", Value.int 0) ]
      [
        Program.lock_x "A";
        Program.write "A" (Expr.int 1);
        Program.lock_x "B";
        Program.read "A" "v";
        Program.write "A" Expr.(var "v" + int 1);
      ]
  in
  let q = Program.cluster_writes p in
  let bindings = [ ("A", Value.int 9); ("B", Value.int 0) ] in
  checkb "semantics preserved" true
    (run_sequential p bindings = run_sequential q bindings);
  checki "damage cannot shrink past the read" (Program.damage_span p)
    (Program.damage_span q)

let test_make_three_phase () =
  let p = spread_program () in
  let q = Program.make_three_phase p in
  checkb "became three-phase" true (Program.is_three_phase q);
  let bindings =
    [ ("A", Value.int 5); ("B", Value.int 7); ("C", Value.int 0); ("D", Value.int 0) ]
  in
  checkb "semantics preserved" true
    (run_sequential p bindings = run_sequential q bindings);
  checkb "still valid" true (Program.validate q = Ok ())

let test_hoist_locks () =
  let p = spread_program () in
  let q = Program.hoist_locks p in
  let bindings =
    [ ("A", Value.int 5); ("B", Value.int 7); ("C", Value.int 0); ("D", Value.int 0) ]
  in
  checkb "semantics preserved" true
    (run_sequential p bindings = run_sequential q bindings);
  checkb "still valid" true (Program.validate q = Ok ());
  (* C and D have no data dependences: their locks hoist to the front,
     shrinking the distance to the last lock request *)
  checkb "last lock moved earlier" true
    (Option.get (Program.last_lock_position q)
    < Option.get (Program.last_lock_position p));
  (* relative lock order is preserved *)
  let lock_order p =
    Array.to_list p.Program.ops
    |> List.filter_map (function Program.Lock (_, e) -> Some e | _ -> None)
  in
  Alcotest.(check (list string)) "lock order" (lock_order p) (lock_order q)

let test_acquire_update_release () =
  let p = spread_program () in
  let q = Program.make_acquire_update_release p in
  checkb "three-phase" true (Program.is_three_phase q);
  let bindings =
    [ ("A", Value.int 5); ("B", Value.int 7); ("C", Value.int 0); ("D", Value.int 0) ]
  in
  checkb "semantics preserved" true
    (run_sequential p bindings = run_sequential q bindings)

let test_equal () =
  checkb "equal to itself" true (Program.equal (spread_program ()) (spread_program ()));
  checkb "name matters" false
    (Program.equal (spread_program ()) (analysis_program ()))

(* qcheck: random straight-line programs keep semantics under both
   transforms. Generator: a sequence over 3 entities / 2 locals with all
   locks upfront so every op order is valid. *)
let arbitrary_program =
  let gen =
    QCheck.Gen.(
      let entity = oneofl [ "A"; "B"; "C" ] in
      let localv = oneofl [ "x"; "y" ] in
      let expr =
        oneof
          [
            map (fun n -> Expr.Const (Value.int n)) small_int;
            map (fun v -> Expr.Var v) localv;
            map2 (fun v n -> Expr.(Add (Var v, Const (Value.int n)))) localv small_int;
            map (fun v -> Expr.Mix (Expr.Var v)) localv;
          ]
      in
      let data_op =
        oneof
          [
            map2 (fun e v -> Program.read e v) entity localv;
            map2 (fun e x -> Program.write e x) entity expr;
            map2 (fun v x -> Program.assign v x) localv expr;
          ]
      in
      let* body = list_size (int_range 0 20) data_op in
      let prologue = [ Program.lock_x "A"; Program.lock_x "B"; Program.lock_x "C" ] in
      return
        (Program.make ~name:"rand"
           ~locals:[ ("x", Value.int 1); ("y", Value.int 2) ]
           (prologue @ body)))
  in
  QCheck.make gen ~print:(fun p -> Fmt.str "%a" Program.pp p)

let qcheck_transforms_preserve_semantics =
  QCheck.Test.make ~name:"cluster/three-phase preserve semantics" ~count:300
    arbitrary_program (fun p ->
      let bindings =
        [ ("A", Value.int 11); ("B", Value.int 22); ("C", Value.int 33) ]
      in
      let reference = run_sequential p bindings in
      run_sequential (Program.cluster_writes p) bindings = reference
      && run_sequential (Program.make_three_phase p) bindings = reference)

let qcheck_cluster_never_increases_damage =
  QCheck.Test.make ~name:"cluster_writes never increases damage span"
    ~count:300 arbitrary_program (fun p ->
      Program.damage_span (Program.cluster_writes p) <= Program.damage_span p)

let qcheck_transforms_keep_validity =
  QCheck.Test.make ~name:"transforms keep programs valid" ~count:300
    arbitrary_program (fun p ->
      Program.validate (Program.cluster_writes p) = Ok ()
      && Program.validate (Program.make_three_phase p) = Ok ())

let qcheck_hoist_preserves_semantics =
  QCheck.Test.make ~name:"hoist_locks preserves semantics and validity"
    ~count:300 arbitrary_program (fun p ->
      let bindings =
        [ ("A", Value.int 11); ("B", Value.int 22); ("C", Value.int 33) ]
      in
      let q = Program.hoist_locks p in
      Program.validate q = Ok ()
      && run_sequential p bindings = run_sequential q bindings)

(* --- qcheck: the allocation-free verdict vs the full pass --- *)

(* [Program.validate] decides validity without tables and builds the
   error list only for a failing program. This is the full pass it
   replaced, kept verbatim as the oracle: on any program both must give
   the same verdict and the same violations in the same order. *)
let full_pass (t : Program.t) =
  let held : (string, Lock_mode.t) Hashtbl.t = Hashtbl.create 8 in
  let declared = Hashtbl.create 8 in
  List.iter (fun (v, _) -> Hashtbl.replace declared v ()) t.Program.locals;
  let unlocked = ref false in
  let errs = ref [] in
  let report i v = errs := (i, v) :: !errs in
  let check_vars i expr =
    List.iter
      (fun v ->
        if not (Hashtbl.mem declared v) then
          report i (Program.Undeclared_variable v))
      (Expr.vars expr)
  in
  Array.iteri
    (fun i op ->
      match op with
      | Program.Lock (mode, e) ->
          if !unlocked then report i Program.Lock_after_unlock;
          if Hashtbl.mem held e then report i (Program.Already_locked e)
          else Hashtbl.replace held e mode
      | Program.Unlock e ->
          if Hashtbl.mem held e then begin
            Hashtbl.remove held e;
            unlocked := true
          end
          else report i (Program.Unlock_not_held e)
      | Program.Read (e, v) ->
          if not (Hashtbl.mem held e) then
            report i (Program.Read_without_lock e);
          if not (Hashtbl.mem declared v) then
            report i (Program.Undeclared_variable v)
      | Program.Write (e, expr) ->
          (match Hashtbl.find_opt held e with
          | Some Lock_mode.Exclusive -> ()
          | Some Lock_mode.Shared | None ->
              report i (Program.Write_without_exclusive e));
          check_vars i expr
      | Program.Assign (v, expr) ->
          if not (Hashtbl.mem declared v) then
            report i (Program.Undeclared_variable v);
          check_vars i expr)
    t.Program.ops;
  match List.rev !errs with [] -> Ok () | errs -> Error errs

module Rng = Prb_util.Rng
module Generator = Prb_workload.Generator

(* Ways a program breaks the discipline, each planted at a random place
   in a valid generated program. An early unlock leaves the entity's
   reads, writes and final unlock after it, and any later lock. *)
type mutation =
  | Drop_lock
  | Lock_after_unlock
  | Write_under_shared
  | Ghost_var
  | Early_unlock

let is_lock = function Program.Lock _ -> true | _ -> false
let is_unlock = function Program.Unlock _ -> true | _ -> false

let mutate rng ops = function
  | Drop_lock ->
      let n = List.length (List.filter is_lock ops) in
      if n = 0 then ops
      else
        let victim = Rng.int rng n and seen = ref 0 in
        List.filter
          (fun op ->
            (not (is_lock op))
            ||
            let k = !seen in
            incr seen;
            k <> victim)
          ops
  | Lock_after_unlock ->
      (* a fresh lock after some unlocks and at the end; a program without
         unlocks first gets an unlock of its first lock *)
      let late = Program.lock_x "late" in
      let ops =
        match List.find_opt is_lock ops with
        | Some (Program.Lock (_, e)) when not (List.exists is_unlock ops) ->
            ops @ [ Program.unlock e ]
        | _ -> ops
      in
      List.concat_map
        (fun op -> if is_unlock op && Rng.bool rng then [ op; late ] else [ op ])
        ops
      @ [ late ]
  | Write_under_shared ->
      (* a write after every shared lock, and some exclusive locks turned
         shared under the writes that follow them *)
      List.concat_map
        (fun op ->
          match op with
          | Program.Lock (Lock_mode.Shared, e) ->
              [ op; Program.write e (Expr.int 7) ]
          | Program.Lock (Lock_mode.Exclusive, e) when Rng.bool rng ->
              [ Program.lock_s e ]
          | _ -> [ op ])
        ops
  | Early_unlock ->
      List.concat_map
        (fun op ->
          match op with
          | Program.Lock (_, e) when Rng.int rng 3 = 0 -> [ op; Program.unlock e ]
          | _ -> [ op ])
        ops
  | Ghost_var ->
      let ghost = Expr.(Mix (var "ghost")) in
      List.concat_map
        (fun op ->
          if Rng.int rng 4 > 0 then [ op ]
          else
            match op with
            | Program.Read (e, _) -> [ Program.read e "ghost" ]
            | Program.Write (e, _) -> [ Program.write e ghost ]
            | Program.Assign (v, _) -> [ Program.assign v ghost ]
            | Program.Lock _ | Program.Unlock _ ->
                [ op; Program.assign "ghost" (Expr.int 1) ])
        ops

let qcheck_validate_matches_full_pass =
  QCheck.Test.make ~name:"validate = full pass (verdict and violations)"
    ~count:500
    QCheck.(triple small_int bool (small_list (int_bound 4)))
    (fun (seed, explicit_unlocks, mutations) ->
      let params =
        {
          Generator.default_params with
          Generator.explicit_unlocks;
          read_fraction = 0.5;
        }
      in
      let rng = Rng.make seed in
      let p = Generator.generate_one params rng ~name:"v" in
      let ops =
        List.fold_left
          (fun ops m ->
            mutate rng ops
              (match m with
              | 0 -> Drop_lock
              | 1 -> Lock_after_unlock
              | 2 -> Write_under_shared
              | 3 -> Ghost_var
              | _ -> Early_unlock))
          (Array.to_list p.Program.ops)
          mutations
      in
      let q = Program.make ~name:"v" ~locals:p.Program.locals ops in
      Program.validate q = full_pass q)

(* --- Parser --- *)

module Parser = Prb_txn.Parser

let test_parse_basic () =
  let src =
    {|
transaction demo
  local bal = 0
  lockX(acct0)
  bal := read(acct0)
  write(acct0, (bal - 10))
  lockS(acct1)
  unlock(acct0)
  unlock(acct1)
|}
  in
  match Parser.parse src with
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e
  | Ok p ->
      checkb "name" true (p.Program.name = "demo");
      checki "ops" 6 (Program.length p);
      checkb "valid" true (Program.validate p = Ok ())

let test_parse_expressions () =
  let src =
    {|
transaction exprs
  local x = 5
  local s = "hello"
  local b = true
  x := (x + 1)
  x := ((x * 2) - -3)
  x := min(x, max(x, 0))
  x := mix((- x))
|}
  in
  match Parser.parse src with
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e
  | Ok p -> checki "four ops" 4 (Program.length p)

let test_parse_roundtrip_handwritten () =
  let p = spread_program () in
  match Parser.parse (Parser.to_string p) with
  | Error e -> Alcotest.failf "round-trip failed: %a" Parser.pp_error e
  | Ok q -> checkb "equal after round-trip" true (Program.equal p q)

let test_parse_many () =
  let src =
    {|
# two transactions in one file
transaction a
  lockX(e)
transaction b
  lockS(e)
|}
  in
  match Parser.parse_many src with
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e
  | Ok ps ->
      Alcotest.(check (list string))
        "names" [ "a"; "b" ]
        (List.map (fun p -> p.Program.name) ps)

let test_parse_errors_carry_lines () =
  (match Parser.parse "transaction t\n  bogus ~~~\n" with
  | Error e -> checki "line number" 2 e.Parser.line
  | Ok _ -> Alcotest.fail "expected error");
  (match Parser.parse "  lockX(a)\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "op before transaction must fail");
  match Parser.parse "transaction t\n  lockX(a)\n  local v = 0\n" with
  | Error e -> checki "locals after ops" 3 e.Parser.line
  | Ok _ -> Alcotest.fail "late local must fail"

let qcheck_parser_roundtrip =
  QCheck.Test.make ~name:"printer/parser round-trip" ~count:300
    arbitrary_program (fun p ->
      match Parser.parse (Parser.to_string p) with
      | Ok q -> Program.equal p q
      | Error _ -> false)

let qcheck_parser_roundtrip_generated =
  QCheck.Test.make ~name:"round-trip on generated workloads" ~count:100
    QCheck.small_int (fun seed ->
      List.for_all
        (fun p ->
          match Parser.parse (Parser.to_string p) with
          | Ok q -> Program.equal p q
          | Error _ -> false)
        (Prb_workload.Generator.generate Prb_workload.Generator.default_params
           ~seed ~n:3))

let () =
  Alcotest.run "prb_txn"
    [
      ("lock_mode", [ Alcotest.test_case "compatibility" `Quick test_compatibility ]);
      ( "expr",
        [
          Alcotest.test_case "eval arithmetic" `Quick test_expr_eval;
          Alcotest.test_case "min/max/neg" `Quick test_expr_min_max_neg;
          Alcotest.test_case "mix deterministic" `Quick test_expr_mix_deterministic;
          Alcotest.test_case "vars" `Quick test_expr_vars;
          Alcotest.test_case "equal" `Quick test_expr_equal;
        ] );
      ( "validate",
        [
          Alcotest.test_case "valid program" `Quick test_validate_ok;
          Alcotest.test_case "two-phase" `Quick test_validate_two_phase;
          Alcotest.test_case "re-lock" `Quick test_validate_relock;
          Alcotest.test_case "unlock not held" `Quick test_validate_unlock_not_held;
          Alcotest.test_case "read without lock" `Quick test_validate_read_without_lock;
          Alcotest.test_case "write without X" `Quick test_validate_write_without_x;
          Alcotest.test_case "undeclared variable" `Quick test_validate_undeclared_var;
          Alcotest.test_case "duplicate local" `Quick test_make_duplicate_local;
          QCheck_alcotest.to_alcotest qcheck_validate_matches_full_pass;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "lock indices" `Quick test_lock_indices;
          Alcotest.test_case "write profile / damage" `Quick test_write_profile_and_damage;
          Alcotest.test_case "three-phase detection" `Quick test_three_phase_detection;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "cluster preserves semantics" `Quick
            test_cluster_writes_preserves_semantics;
          Alcotest.test_case "cluster reduces damage" `Quick
            test_cluster_writes_reduces_damage;
          Alcotest.test_case "cluster respects dependencies" `Quick
            test_cluster_writes_respects_dependencies;
          Alcotest.test_case "make_three_phase" `Quick test_make_three_phase;
          Alcotest.test_case "hoist_locks" `Quick test_hoist_locks;
          Alcotest.test_case "acquire/update/release" `Quick
            test_acquire_update_release;
          QCheck_alcotest.to_alcotest qcheck_hoist_preserves_semantics;
          Alcotest.test_case "program equality" `Quick test_equal;
          QCheck_alcotest.to_alcotest qcheck_transforms_preserve_semantics;
          QCheck_alcotest.to_alcotest qcheck_cluster_never_increases_damage;
          QCheck_alcotest.to_alcotest qcheck_transforms_keep_validity;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic program" `Quick test_parse_basic;
          Alcotest.test_case "expressions" `Quick test_parse_expressions;
          Alcotest.test_case "round-trip" `Quick test_parse_roundtrip_handwritten;
          Alcotest.test_case "multiple transactions" `Quick test_parse_many;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_parse_errors_carry_lines;
          QCheck_alcotest.to_alcotest qcheck_parser_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_parser_roundtrip_generated;
        ] );
    ]
