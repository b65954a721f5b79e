(* Syntactic analysis only: the rules are designed so that the parsed AST
   carries enough evidence (module paths, identifier shapes, match-arm
   structure), which keeps the analyzer independent of the build — it can
   lint a tree that does not even typecheck yet. The flip side is that
   rules name concrete module paths (e.g. [Hashtbl.iter], [Prb_sim]); a
   rename there must update this file. *)

module P = Parsetree
module A = Ast_iterator

type rule = D1 | D2 | D3 | L1 | L2 | L3 | A1 | P1 | H1

let all_rules = [ D1; D2; D3; L1; L2; L3; A1; P1; H1 ]

let rule_id = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | A1 -> "A1"
  | P1 -> "P1"
  | H1 -> "H1"

let rule_of_id s =
  match String.uppercase_ascii s with
  | "D1" -> Some D1
  | "D2" -> Some D2
  | "D3" -> Some D3
  | "L1" -> Some L1
  | "L2" -> Some L2
  | "L3" -> Some L3
  | "A1" -> Some A1
  | "P1" -> Some P1
  | "H1" -> Some H1
  | _ -> None

type context = {
  lib : string option;
  replay_critical : bool;
  clock_provider : bool;
  distrib : bool;
}

let replay_critical_libs =
  [ "core"; "sim"; "distrib"; "fault"; "wfg"; "lock"; "rollback" ]

let context_of_lib name =
  {
    lib = Some name;
    replay_critical = List.mem name replay_critical_libs;
    clock_provider = String.equal name "bench_scale";
    distrib = String.equal name "distrib";
  }

let bin_context =
  { lib = None; replay_critical = false; clock_provider = false; distrib = false }

let neutral_context =
  { lib = None; replay_critical = false; clock_provider = false; distrib = false }

(* bench/ is production code for lint purposes: D3 applies in full (the
   harness draws from the seeded Rng; its timing goes through the
   bench_scale clock provider), and the explicitly-sanctioned sites carry
   [@lint.allow "D3"]. *)
let bench_context = neutral_context

let context_of_path path =
  let base = Filename.basename path in
  let from_marker =
    (* fixture convention: <lib>__anything.ml pins the context *)
    match String.index_opt base '_' with
    | Some i
      when i > 0 && i + 1 < String.length base && base.[i + 1] = '_' ->
        Some (String.sub base 0 i)
    | _ -> None
  in
  match from_marker with
  | Some "bin" -> bin_context
  | Some "bench" -> bench_context
  | Some "clean" | Some "deep" -> neutral_context
  | Some name -> context_of_lib name
  | None -> (
      let segments = String.split_on_char '/' path in
      let rec find = function
        | "lib" :: name :: _ :: _ -> Some (context_of_lib name)
        | "bin" :: _ :: _ -> Some bin_context
        | "bench" :: _ :: _ -> Some bench_context
        | _ :: rest -> find rest
        | [] -> None
      in
      (* the file itself is the last segment, hence the [_ :: _] tails *)
      match find segments with Some c -> c | None -> neutral_context)

type violation = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "%s:%d:%d: %s %s" v.file v.line v.col (rule_id v.rule)
    v.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let violation_json v =
  Printf.sprintf
    {|{"file":"%s","line":%d,"col":%d,"rule":"%s","message":"%s"}|}
    (json_escape v.file) v.line v.col (rule_id v.rule)
    (json_escape v.message)

(* Reports sort by (file, line, rule-id) — not by column — so a report
   diffs stably across checkouts and filesystems even when a formatter
   nudges intra-line positions. Column and message break the remaining
   ties deterministically. *)
let compare_violation a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match String.compare (rule_id a.rule) (rule_id b.rule) with
          | 0 -> (
              match Int.compare a.col b.col with
              | 0 -> String.compare a.message b.message
              | n -> n)
          | n -> n)
      | n -> n)
  | n -> n

let schema_version = 2

let report_json violations =
  let vs = List.sort compare_violation violations in
  Printf.sprintf "{\"schema_version\":%d,\"findings\":[%s]}" schema_version
    (String.concat ",\n " (List.map violation_json vs))

(* --- Longident helpers ------------------------------------------------ *)

let rec lid_head = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> lid_head l
  | Longident.Lapply (l, _) -> lid_head l

let rec lid_last_module = function
  (* the module component closest to the value name: [Stdlib.Hashtbl.iter]
     and [Hashtbl.iter] both answer ["Hashtbl"] *)
  | Longident.Lident _ -> None
  | Longident.Ldot (Longident.Lident m, _) -> Some m
  | Longident.Ldot (l, _) -> (
      match l with
      | Longident.Ldot (_, m) -> Some m
      | _ -> lid_last_module l)
  | Longident.Lapply (_, l) -> lid_last_module l

(* --- Attribute handling ----------------------------------------------- *)

(* An allow payload is "IDS" or "IDS: rationale" — e.g.
   [[@lint.allow "D1 D2"]] or [[@lint.allow "A1: amortized growth"]].
   The deep rules (A1/P1/H1) refuse a suppression whose rationale is
   missing or empty; the syntactic rules ignore the rationale. *)
let parse_allow_payload s =
  let ids_part, rationale =
    match String.index_opt s ':' with
    | Some i ->
        let r = String.sub s (i + 1) (String.length s - i - 1) in
        let r = String.trim r in
        (String.sub s 0 i, if String.equal r "" then None else Some r)
    | None -> (s, None)
  in
  let ids =
    String.split_on_char ' ' ids_part
    |> List.concat_map (String.split_on_char ',')
    |> List.filter (fun x -> not (String.equal x ""))
  in
  (ids, rationale)

let allow_specs (attrs : P.attributes) =
  List.filter_map
    (fun (a : P.attribute) ->
      if String.equal a.attr_name.txt "lint.allow" then
        match a.attr_payload with
        | P.PStr
            [
              {
                pstr_desc =
                  P.Pstr_eval
                    ( { pexp_desc = P.Pexp_constant (P.Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
            Some (parse_allow_payload s)
        | _ -> None
      else None)
    attrs

let allow_ids attrs = List.concat_map fst (allow_specs attrs)

(* --- The checker ------------------------------------------------------ *)

(* The lock-table transitions, certifier grants and wait edges that only
   the engine core's request path may perform (L3). *)
let request_path_step lid =
  match (lid_last_module lid, Longident.last lid) with
  | Some "Lock_table", ("request" | "release" | "release_all" | "cancel_wait")
  | Some "History", "note_grant"
  | Some "Waits_for", ("set_wait" | "clear_wait") ->
      true
  | _ -> false

let protocol_ctors =
  (* Dist_scheduler.event: the distributed protocol message type. Adding a
     variant there should extend this list — test_lint cross-checks. *)
  [
    "Exec";
    "Detector";
    "Req_arrive";
    "Req_timeout";
    "Grant_arrive";
    "Release_arrive";
    "Release_retry";
    "Crash";
    "Recover";
  ]

let check_structure ?(rules = all_rules) ~(context : context) ~file str =
  let found = ref [] in
  let scope_allows = ref [] in
  let file_allows = ref [] in
  let allowed id =
    List.mem id !file_allows
    || List.exists (fun ids -> List.mem id ids) !scope_allows
  in
  let emit rule (loc : Location.t) message =
    if List.mem rule rules && not (allowed (rule_id rule)) then
      let p = loc.loc_start in
      found :=
        {
          file;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          rule;
          message;
        }
        :: !found
  in
  let with_allows ids f =
    match ids with
    | [] -> f ()
    | _ ->
        scope_allows := ids :: !scope_allows;
        f ();
        scope_allows := List.tl !scope_allows
  in
  (* Rules over one identifier reference. [applied] distinguishes the
     function position of an application: infix [a = b] is allowed, while
     [=] handed to a higher-order function is a polymorphic comparator. *)
  let check_lid ~applied lid loc =
    (match lid_last_module lid with
    | Some "Hashtbl" when context.replay_critical -> (
        match Longident.last lid with
        | ("iter" | "fold") as f ->
            emit D1 loc
              (Printf.sprintf
                 "Hashtbl.%s traverses in hash order, which depends on the \
                  stdlib version and the table's history; route through \
                  Util.sorted_bindings / Util.iter_sorted"
                 f)
        | _ -> ())
    | _ -> ());
    (if context.replay_critical then
       match lid with
       | Longident.Lident "compare"
       | Longident.Ldot (Longident.Lident "Stdlib", "compare") ->
           emit D2 loc
             "polymorphic compare; use the id module's order (Txn_id.compare, \
              Store.Entity.compare, Site_id.compare, Int.compare, ...)"
       | Longident.Lident (("=" | "<>") as op)
       | Longident.Ldot (Longident.Lident "Stdlib", (("=" | "<>") as op))
         when not applied ->
           emit D2 loc
             (Printf.sprintf
                "polymorphic (%s) used as a comparator value; use the id \
                 module's equal"
                op)
       | _ -> ());
    (match lid_head lid with
    | "Random" ->
        let detail =
          match Longident.last lid with
          | "self_init" -> "Random.self_init seeds from the environment"
          | _ -> "the ambient Random module shares hidden global state"
        in
        emit D3 loc
          (detail ^ "; replay-deterministic code draws from the seeded Rng")
    | _ -> ());
    (match lid with
    | Longident.Ldot (Longident.Lident "Unix", (("gettimeofday" | "time") as f))
    | Longident.Ldot (Longident.Lident "Sys", ("time" as f))
      when not context.clock_provider ->
        emit D3 loc
          (Printf.sprintf
             "wall clock (%s) outside the opt-in detection clock; thread a \
              [clock] through the config instead"
             f)
    | _ -> ());
    (match context.lib with
    | Some ("core" | "distrib")
      when request_path_step lid
           && not (String.equal (Filename.basename file) "engine.ml") ->
        emit L3 loc
          (Printf.sprintf
             "%s outside the engine core: every lock-table transition goes \
              through the one request path in lib/core/engine.ml"
             (String.concat "." (Longident.flatten lid)))
    | _ -> ());
    match (context.lib, lid_head lid) with
    | Some (("core" | "lock") as l), (("Prb_sim" | "Prb_workload") as dep) ->
        emit L1 loc
          (Printf.sprintf
             "layering violation: lib/%s must not depend on %s (the engines \
              must stay usable without the simulation stack)"
             l dep)
    | _ -> ()
  in
  let rec pat_ctor_heads (p : P.pattern) =
    match p.ppat_desc with
    | P.Ppat_construct ({ txt; _ }, _) -> [ Longident.last txt ]
    | P.Ppat_or (a, b) -> pat_ctor_heads a @ pat_ctor_heads b
    | P.Ppat_alias (p, _) | P.Ppat_constraint (p, _) -> pat_ctor_heads p
    | _ -> []
  in
  let rec is_catch_all (p : P.pattern) =
    match p.ppat_desc with
    | P.Ppat_any | P.Ppat_var _ -> true
    | P.Ppat_alias (p, _) | P.Ppat_constraint (p, _) -> is_catch_all p
    | P.Ppat_or (a, b) -> is_catch_all a || is_catch_all b
    | _ -> false
  in
  let check_cases (cases : P.case list) =
    if context.distrib then
      let on_protocol =
        List.exists
          (fun (c : P.case) ->
            List.exists
              (fun h -> List.mem h protocol_ctors)
              (pat_ctor_heads c.pc_lhs))
          cases
      in
      if on_protocol then
        List.iter
          (fun (c : P.case) ->
            if c.pc_guard = None && is_catch_all c.pc_lhs then
              emit L2 c.pc_lhs.ppat_loc
                "catch-all arm in a match over the distributed protocol \
                 message type; name every variant so new messages force \
                 explicit handling")
          cases
  in
  let expr (self : A.iterator) (e : P.expression) =
    with_allows (allow_ids e.pexp_attributes) @@ fun () ->
    match e.pexp_desc with
    | P.Pexp_apply (({ pexp_desc = P.Pexp_ident { txt; loc }; _ } as fn), args)
      ->
        with_allows (allow_ids fn.pexp_attributes) (fun () ->
            check_lid ~applied:true txt loc);
        List.iter (fun (_, a) -> self.expr self a) args
    | P.Pexp_ident { txt; loc } -> check_lid ~applied:false txt loc
    | P.Pexp_match (_, cases) | P.Pexp_function cases ->
        check_cases cases;
        A.default_iterator.expr self e
    | _ -> A.default_iterator.expr self e
  in
  let typ (self : A.iterator) (t : P.core_type) =
    (match t.ptyp_desc with
    | P.Ptyp_constr ({ txt; loc }, _) | P.Ptyp_class ({ txt; loc }, _) ->
        check_lid ~applied:false txt loc
    | _ -> ());
    A.default_iterator.typ self t
  in
  let pat (self : A.iterator) (p : P.pattern) =
    (match p.ppat_desc with
    | P.Ppat_construct ({ txt; loc }, _) -> check_lid ~applied:false txt loc
    | _ -> ());
    A.default_iterator.pat self p
  in
  let module_expr (self : A.iterator) (m : P.module_expr) =
    (match m.pmod_desc with
    | P.Pmod_ident { txt; loc } -> check_lid ~applied:false txt loc
    | _ -> ());
    A.default_iterator.module_expr self m
  in
  let value_binding (self : A.iterator) (vb : P.value_binding) =
    with_allows (allow_ids vb.pvb_attributes) @@ fun () ->
    A.default_iterator.value_binding self vb
  in
  let structure (self : A.iterator) items =
    List.iter
      (fun (item : P.structure_item) ->
        match item.pstr_desc with
        | P.Pstr_attribute a ->
            (* floating [@@@lint.allow ...]: covers the rest of the file *)
            file_allows := allow_ids [ a ] @ !file_allows
        | _ -> self.structure_item self item)
      items
  in
  let iterator =
    {
      A.default_iterator with
      expr;
      typ;
      pat;
      module_expr;
      value_binding;
      structure;
    }
  in
  iterator.structure iterator str;
  List.sort compare_violation !found

let parse_implementation ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
          Error (Format.asprintf "%a" Location.print_report report)
      | Some `Already_displayed | None -> Error (Printexc.to_string exn))

let check_source ?rules ~context ~file source =
  match parse_implementation ~file source with
  | Ok str -> Ok (check_structure ?rules ~context ~file str)
  | Error e -> Error e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_file ?rules ?context path =
  let context =
    match context with Some c -> c | None -> context_of_path path
  in
  check_source ?rules ~context ~file:path (read_file path)

let scan ?rules paths =
  let rec walk acc path =
    if Sys.file_exists path && Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.fold_left
           (fun acc name ->
             if
               String.equal name "_build"
               || (String.length name > 0 && name.[0] = '.')
             then acc
             else walk acc (Filename.concat path name))
           acc
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  let files = List.rev (List.fold_left walk [] paths) in
  List.fold_left
    (fun (vs, errs) f ->
      match check_file ?rules f with
      | Ok v -> (vs @ v, errs)
      | Error e -> (vs, errs @ [ (f, e) ]))
    ([], []) files
