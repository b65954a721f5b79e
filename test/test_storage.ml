(* Tests for Prb_storage: values, the global store, constraints. *)

module Value = Prb_storage.Value
module Store = Prb_storage.Store

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Value --- *)

let test_value_equal () =
  checkb "ints" true (Value.equal (Value.int 3) (Value.int 3));
  checkb "ints differ" false (Value.equal (Value.int 3) (Value.int 4));
  checkb "texts" true (Value.equal (Value.text "x") (Value.text "x"));
  checkb "bools" true (Value.equal (Value.bool true) (Value.bool true));
  checkb "cross kind" false (Value.equal (Value.int 1) (Value.bool true))

let test_value_compare_total () =
  let vs =
    [ Value.int (-1); Value.int 5; Value.text "a"; Value.text "b";
      Value.bool false; Value.bool true ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          checkb "antisymmetric" true (compare c1 0 = compare 0 c2))
        vs)
    vs

let test_value_arithmetic () =
  checkb "add" true (Value.equal (Value.add (Value.int 2) (Value.int 3)) (Value.int 5));
  checkb "sub" true (Value.equal (Value.sub (Value.int 2) (Value.int 3)) (Value.int (-1)));
  checkb "mul" true (Value.equal (Value.mul (Value.int 4) (Value.int 3)) (Value.int 12));
  checkb "neg" true (Value.equal (Value.neg (Value.int 9)) (Value.int (-9)));
  checkb "min" true (Value.equal (Value.min_v (Value.int 2) (Value.int 7)) (Value.int 2));
  checkb "max" true (Value.equal (Value.max_v (Value.int 2) (Value.int 7)) (Value.int 7))

let test_value_as_int () =
  checki "int" 42 (Value.as_int (Value.int 42));
  checki "bool true" 1 (Value.as_int (Value.bool true));
  checki "bool false" 0 (Value.as_int (Value.bool false));
  (* fixed FNV-1a vectors: the distributed engine's default site map is
     this hash modulo the site count, so a changed value moves entities *)
  checki "text abc" 2819150120103270219 (Value.as_int (Value.text "abc"));
  checki "text e0017" 329657658576731836 (Value.as_int (Value.text "e0017"));
  checki "text empty" 860922984064492325 (Value.as_int (Value.text ""));
  checkb "text spread" true
    (Value.as_int (Value.text "abc") <> Value.as_int (Value.text "abd"))

(* qcheck: the native-int fold equals the boxed Int64 fold it replaced,
   on strings of length 0-24 over every byte value. *)
let qcheck_string_hash_oracle =
  QCheck.Test.make ~name:"string_hash = Int64 fold" ~count:1000
    QCheck.(string_gen_of_size Gen.(0 -- 24) Gen.char)
    (fun s -> Value.string_hash s = Fnv_ref.string_hash s)

let test_value_mix_deterministic () =
  checkb "mix deterministic" true
    (Value.equal (Value.mix (Value.int 7)) (Value.mix (Value.int 7)));
  checkb "mix changes value" false
    (Value.equal (Value.mix (Value.int 7)) (Value.int 7));
  checkb "mix non-negative int" true
    (Value.as_int (Value.mix (Value.int (-3))) >= 0)

let test_value_to_string () =
  checks "int" "7" (Value.to_string (Value.int 7));
  checks "text quoted" "\"hi\"" (Value.to_string (Value.text "hi"));
  checks "bool" "true" (Value.to_string (Value.bool true))

(* --- Store --- *)

let test_store_define_get () =
  let s = Store.create () in
  Store.define s "x" (Value.int 1);
  checkb "mem" true (Store.mem s "x");
  checkb "get" true (Value.equal (Store.get s "x") (Value.int 1));
  checkb "find_opt none" true (Store.find_opt s "y" = None);
  Alcotest.check_raises "get missing" Not_found (fun () ->
      ignore (Store.get s "missing"))

let test_store_install () =
  let s = Store.of_list [ ("x", Value.int 1) ] in
  Store.install s "x" (Value.int 2);
  checkb "installed" true (Value.equal (Store.get s "x") (Value.int 2));
  checki "install count" 1 (Store.install_count s);
  Alcotest.check_raises "install undefined" Not_found (fun () ->
      Store.install s "nope" (Value.int 0))

let test_store_entities_sorted () =
  let s = Store.of_list [ ("b", Value.int 0); ("a", Value.int 0); ("c", Value.int 0) ] in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (Store.entities s);
  checki "size" 3 (Store.size s)

let test_store_snapshot_equal () =
  let a = Store.of_list [ ("x", Value.int 1); ("y", Value.text "v") ] in
  let b = Store.of_list [ ("y", Value.text "v"); ("x", Value.int 1) ] in
  checkb "equal state" true (Store.equal_state a b);
  Store.install b "x" (Value.int 9);
  checkb "diverged" false (Store.equal_state a b)

let test_store_equal_state_edges () =
  let empty1 = Store.create () and empty2 = Store.create () in
  checkb "empty stores equal" true (Store.equal_state empty1 empty2);
  (* Same size, different key sets: the lookup pass must reject. *)
  let a = Store.of_list [ ("x", Value.int 1); ("y", Value.int 2) ] in
  let b = Store.of_list [ ("x", Value.int 1); ("z", Value.int 2) ] in
  checkb "same size, different keys" false (Store.equal_state a b);
  checkb "asymmetric arg order too" false (Store.equal_state b a);
  (* Subset: sizes differ. *)
  let c = Store.of_list [ ("x", Value.int 1) ] in
  checkb "strict subset" false (Store.equal_state c a);
  checkb "strict superset" false (Store.equal_state a c)

(* --- Constraints --- *)

let test_constraint_sum () =
  let s = Store.of_list [ ("a", Value.int 60); ("b", Value.int 40) ] in
  let c =
    Store.Constraint.sum_preserved ~name:"total" [ "a"; "b" ] ~expected:100
  in
  checkb "holds" true (Store.Constraint.holds c s);
  Store.install s "a" (Value.int 59);
  checkb "violated" false (Store.Constraint.holds c s);
  Store.install s "b" (Value.int 41);
  checkb "restored" true (Store.Constraint.holds c s)

let test_constraint_all_hold () =
  let s = Store.of_list [ ("a", Value.int 1) ] in
  let ok = Store.Constraint.make ~name:"ok" (fun _ -> true) in
  let bad = Store.Constraint.make ~name:"bad" (fun _ -> false) in
  checkb "all ok" true (Store.Constraint.all_hold [ ok ] s = Ok ());
  (match Store.Constraint.all_hold [ ok; bad ] s with
  | Error [ "bad" ] -> ()
  | _ -> Alcotest.fail "expected bad to be reported")

(* qcheck: install then get round-trips *)
let qcheck_install_get =
  QCheck.Test.make ~name:"install/get round-trip" ~count:300
    QCheck.(pair (list (pair small_string small_int)) small_int)
    (fun (bindings, v) ->
      QCheck.assume (bindings <> []);
      let s =
        Store.of_list (List.map (fun (e, x) -> (e, Value.int x)) bindings)
      in
      let e, _ = List.hd bindings in
      Store.install s e (Value.int v);
      Value.equal (Store.get s e) (Value.int v))

(* The id-indexed store against a hashtable model, over random scripts
   that define and reset entities, number names nobody defines, read and
   install by name and by id, and compare with a second store that
   numbers the same names in the opposite order. [Not_found] must be
   raised exactly where the model raises it. Ids are 0, 1, 2, ... in the
   order names were first defined or asked for, and an id past them (or
   -1) names nothing. *)
let qcheck_store_vs_model =
  let names = [| "n0"; "n1"; "n2"; "n3"; "n4"; "n5" |] in
  QCheck.Test.make ~name:"id-indexed store matches a hashtable model"
    ~count:500
    QCheck.(list (triple (int_bound 9) (int_bound 5) small_int))
    (fun script ->
      let a = Store.create () and b = Store.create () in
      for i = Array.length names - 1 downto 0 do
        ignore (Store.id b names.(i))
      done;
      let ma = Hashtbl.create 8 and mb = Hashtbl.create 8 in
      let installs = ref 0 and asked = ref [] in
      let unknown i =
        match Store.name a i with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let outcome f = match f () with v -> Some v | exception Not_found -> None in
      let bindings m =
        List.sort compare (Hashtbl.fold (fun e v acc -> (e, v) :: acc) m [])
      in
      let model_install e v =
        ignore (Hashtbl.find ma e);
        Hashtbl.replace ma e v;
        incr installs
      in
      let agree () =
        Store.snapshot a = bindings ma
        && Store.entities a = List.map fst (bindings ma)
        && Store.size a = Hashtbl.length ma
        && Store.install_count a = !installs
        && Store.equal_state a b = (bindings ma = bindings mb)
        && Store.equal_state b a = (bindings ma = bindings mb)
        && List.init (List.length !asked) (Store.name a) = List.rev !asked
        && unknown (List.length !asked)
        && unknown (-1)
      in
      List.for_all
        (fun (op, ni, n) ->
          let e = names.(ni) and v = Value.int n in
          (* these ops define [e] in [a] or ask its id *)
          if (op = 0 || op = 1 || op = 3 || op = 5) && not (List.mem e !asked)
          then asked := e :: !asked;
          (match op with
          | 0 ->
              Store.define a e v;
              Hashtbl.replace ma e v;
              Store.define b e v;
              Hashtbl.replace mb e v;
              true
          | 1 ->
              (* a program naming an entity the store never defined *)
              String.equal (Store.name a (Store.id a e)) e
          | 2 -> outcome (fun () -> Store.get a e) = outcome (fun () -> Hashtbl.find ma e)
          | 3 ->
              outcome (fun () -> Store.get_at a (Store.id a e))
              = outcome (fun () -> Hashtbl.find ma e)
          | 4 ->
              outcome (fun () -> Store.install a e v)
              = outcome (fun () -> model_install e v)
          | 5 ->
              outcome (fun () -> Store.install_at a (Store.id a e) v)
              = outcome (fun () -> model_install e v)
          | 6 ->
              Store.mem a e = Hashtbl.mem ma e
              && Store.find_opt a e = Hashtbl.find_opt ma e
          | 7 ->
              Store.define b e v;
              Hashtbl.replace mb e v;
              true
          | 8 ->
              outcome (fun () -> Store.get_at b (Store.id b e))
              = outcome (fun () -> Hashtbl.find mb e)
          | _ -> Store.equal_state a (Store.of_list (Store.snapshot a)))
          && agree ())
        script)

let () =
  Alcotest.run "prb_storage"
    [
      ( "value",
        [
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "compare total" `Quick test_value_compare_total;
          Alcotest.test_case "arithmetic" `Quick test_value_arithmetic;
          Alcotest.test_case "as_int" `Quick test_value_as_int;
          QCheck_alcotest.to_alcotest qcheck_string_hash_oracle;
          Alcotest.test_case "mix" `Quick test_value_mix_deterministic;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
        ] );
      ( "store",
        [
          Alcotest.test_case "define/get" `Quick test_store_define_get;
          Alcotest.test_case "install" `Quick test_store_install;
          Alcotest.test_case "entities sorted" `Quick test_store_entities_sorted;
          Alcotest.test_case "snapshot equality" `Quick test_store_snapshot_equal;
          Alcotest.test_case "equal_state edge cases" `Quick
            test_store_equal_state_edges;
          QCheck_alcotest.to_alcotest qcheck_install_get;
          QCheck_alcotest.to_alcotest qcheck_store_vs_model;
        ] );
      ( "constraint",
        [
          Alcotest.test_case "sum preserved" `Quick test_constraint_sum;
          Alcotest.test_case "all_hold" `Quick test_constraint_all_hold;
        ] );
    ]
