(* Typedtree extraction and the intra-repo call graph for the deep pass.

   One walk per compilation unit distills every top-level function into a
   flat [def]: its parameters, its [[@hot]] / [[@lint.allow]] markings,
   and an ordered stream of the events the deep rules care about —
   allocation sites (A1) and calls with their argument identifiers (A1
   reachability, P1 sequencing, H1 confinement). The global phase
   (Lint_deep) never re-touches the typedtree: it resolves call
   candidates against the definition table, closes the graph, and
   applies the rules to the event streams.

   Reference resolution: paths print through dune's wrapper aliases
   ([Pqueue.push] with [module Pqueue = Prb_util.Dense.Pqueue] in scope),
   so each unit records its module aliases and rewrites reference heads
   through them; bare identifiers resolve by [Ident] identity against the
   unit's own definitions. Every candidate is a dotted canonical key in
   the same namespace as {!Lint_cmt.canonical_of_modname}. *)

module T = Typedtree
module TI = Tast_iterator
open Typedtree

type call = {
  c_loc : Location.t;
  candidates : string list;  (** canonical callee keys, best first *)
  args : (string option * string option) list;
      (** (label, argument identifier) in call order; [None] identifiers
          are non-variable arguments *)
  c_allowed : string list;  (** rationale-carrying allows in scope *)
}

type alloc = { a_loc : Location.t; a_what : string; a_allowed : string list }

type event = Call of call | Alloc of alloc

type def = {
  key : string;
  d_loc : Location.t;
  hot : bool;
  params : (string option * string) list;
      (** (label, unique ident) of the currying spine, in order *)
  d_allowed : string list;
  events : event list;
}

type unit_info = {
  u_name : string;
  u_source : string;
  u_lib : string option;
  defs : def list;
  bad_allows : (Location.t * string) list;
      (** deep-rule suppressions missing their required rationale *)
}

(* --- Canonical-key taxonomy ------------------------------------------- *)

let components k = String.split_on_char '.' k

let last_component k =
  match List.rev (components k) with x :: _ -> x | [] -> k

let has_component k c = List.exists (String.equal c) (components k)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* The partial-rollback exception (P1): calls routed through the rollback
   layer neither count as releases nor as acquires. The layer is
   [lib/rollback] in the real tree; fixtures model it with a module
   component literally named [Rollback]. *)
let is_rollback_key k =
  starts_with ~prefix:"Prb_rollback." k || has_component k "Rollback"

type lock_prim = Lp_acquire | Lp_release | Lp_none

(* Lock primitives are recognised structurally — a module component named
   [Lock_table] (the real [Prb_lock.Lock_table] or a fixture stub) — so
   the discipline is checkable on self-contained sources. The transaction
   is always the second positional argument. *)
let lock_prim_of k =
  if not (has_component k "Lock_table") then Lp_none
  else
    match last_component k with
    | "request" -> Lp_acquire
    | "release" | "release_all" | "cancel_wait" -> Lp_release
    | _ -> Lp_none

let lock_prim_txn_pos = 1

let is_unsafe_key k =
  let l = last_component k in
  starts_with ~prefix:"unsafe_" l
  && (has_component k "Array" || has_component k "Bytes"
     || has_component k "String" || has_component k "Float")

(* --- Known-allocating stdlib calls (A1) -------------------------------- *)

let alloc_prims =
  [
    ("Stdlib.ref", "ref cell");
    ("Stdlib.@", "list append");
    ("Stdlib.^", "string append");
    ("Stdlib.List.append", "list append");
    ("Stdlib.List.concat", "list concat");
    ("Stdlib.List.concat_map", "list concat_map");
    ("Stdlib.List.map", "List.map result list");
    ("Stdlib.List.mapi", "List.mapi result list");
    ("Stdlib.List.rev", "List.rev result list");
    ("Stdlib.List.rev_append", "list rev_append");
    ("Stdlib.List.init", "List.init result list");
    ("Stdlib.List.filter", "List.filter result list");
    ("Stdlib.List.filter_map", "List.filter_map result list");
    ("Stdlib.List.sort", "List.sort result list");
    ("Stdlib.List.sort_uniq", "List.sort_uniq result list");
    ("Stdlib.List.stable_sort", "List.stable_sort result list");
    ("Stdlib.List.of_seq", "list of_seq");
    ("Stdlib.List.to_seq", "sequence");
    ("Stdlib.Array.make", "Array.make");
    ("Stdlib.Array.init", "Array.init");
    ("Stdlib.Array.append", "Array.append");
    ("Stdlib.Array.concat", "Array.concat");
    ("Stdlib.Array.sub", "Array.sub");
    ("Stdlib.Array.copy", "Array.copy");
    ("Stdlib.Array.of_list", "Array.of_list");
    ("Stdlib.Array.to_list", "Array.to_list");
    ("Stdlib.Array.map", "Array.map");
    ("Stdlib.Array.mapi", "Array.mapi");
    ("Stdlib.String.concat", "String.concat");
    ("Stdlib.String.sub", "String.sub");
    ("Stdlib.String.make", "String.make");
    ("Stdlib.String.init", "String.init");
    ("Stdlib.Bytes.create", "Bytes.create");
    ("Stdlib.Bytes.make", "Bytes.make");
    ("Stdlib.Bytes.sub", "Bytes.sub");
    ("Stdlib.Bytes.to_string", "Bytes.to_string");
    ("Stdlib.Bytes.of_string", "Bytes.of_string");
    ("Stdlib.Hashtbl.create", "Hashtbl.create");
    ("Stdlib.Hashtbl.add", "Hashtbl.add (bucket)");
    ("Stdlib.Hashtbl.replace", "Hashtbl.replace (bucket)");
    (* lookups that box every hit in a fresh [Some] *)
    ("Stdlib.Hashtbl.find_opt", "Hashtbl.find_opt (Some per hit)");
    ("Stdlib.List.assoc_opt", "List.assoc_opt (Some per hit)");
    ("Stdlib.List.find_opt", "List.find_opt (Some per hit)");
    ("Stdlib.List.nth_opt", "List.nth_opt (Some per hit)");
    ("Stdlib.Array.find_opt", "Array.find_opt (Some per hit)");
    ("Stdlib.String.index_opt", "String.index_opt (Some per hit)");
    ("Stdlib.Buffer.create", "Buffer.create");
    ("Stdlib.Buffer.contents", "Buffer.contents");
    ("Stdlib.Queue.create", "Queue.create");
    ("Stdlib.Queue.add", "Queue.add (cell)");
    ("Stdlib.Queue.push", "Queue.push (cell)");
    ("Stdlib.Stack.create", "Stack.create");
    ("Stdlib.Stack.push", "Stack.push (cell)");
    ("Stdlib.string_of_int", "string_of_int");
    ("Stdlib.string_of_float", "string_of_float");
    ("Stdlib.string_of_bool", "string_of_bool");
  ]

let formatting_prefixes =
  [ "Stdlib.Printf."; "Stdlib.Format."; "Fmt."; "Stdlib.Scanf." ]

let float_prims =
  [
    "Stdlib.+."; "Stdlib.-."; "Stdlib.*."; "Stdlib./."; "Stdlib.~-.";
    "Stdlib.float_of_int"; "Stdlib.Float.of_int"; "Stdlib.sqrt";
    "Stdlib.abs_float"; "Stdlib.mod_float"; "Stdlib.ceil"; "Stdlib.floor";
  ]

let poly_prims =
  [
    "Stdlib.compare"; "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>";
    "Stdlib.<="; "Stdlib.>="; "Stdlib.min"; "Stdlib.max";
    "Stdlib.Hashtbl.hash";
  ]

let alloc_prim_of k =
  match List.assoc_opt k alloc_prims with
  | Some d -> Some d
  | None ->
      if List.exists (fun p -> starts_with ~prefix:p k) formatting_prefixes
      then Some "formatting"
      else None

(* --- Type helpers ------------------------------------------------------ *)

let type_head t =
  match Types.get_desc t with
  | Types.Tconstr (p, _, _) -> Some (Path.name p)
  | _ -> None

let is_immediate_type t =
  match type_head t with
  | Some ("int" | "bool" | "char" | "unit") -> true
  | _ -> false

let is_arrow_type t =
  match Types.get_desc t with Types.Tarrow _ -> true | _ -> false

(* --- Attribute helpers ------------------------------------------------- *)

let deep_ids = [ "A1"; "P1"; "H1" ]

let is_hot_attrs (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      String.equal a.attr_name.txt "hot"
      || String.equal a.attr_name.txt "lint.hot")
    attrs

(* Split the allows on [attrs] into (granted deep-or-any ids backed by a
   rationale or not needing one, deep ids suppressed without the required
   rationale at loc). Untyped ids pass through untouched — the deep pass
   only consumes A1/P1/H1. *)
let allow_partition (attrs : Parsetree.attributes) =
  List.fold_left
    (fun (ok, bad) (a : Parsetree.attribute) ->
      if not (String.equal a.attr_name.txt "lint.allow") then (ok, bad)
      else
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Parsetree.Pstr_eval
                    ( {
                        pexp_desc =
                          Parsetree.Pexp_constant
                            (Parsetree.Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] ->
            let ids, rationale = Lint.parse_allow_payload s in
            let ids = List.map String.uppercase_ascii ids in
            List.fold_left
              (fun (ok, bad) id ->
                if List.mem id deep_ids && rationale = None then
                  (ok, (a.attr_loc, id) :: bad)
                else (id :: ok, bad))
              (ok, bad) ids
        | _ -> (ok, bad))
    ([], []) attrs

(* --- Static constants (no runtime allocation) -------------------------- *)

let rec is_static_const (e : T.expression) =
  match e.exp_desc with
  | T.Texp_constant _ -> true
  | T.Texp_construct (_, _, args) -> List.for_all is_static_const args
  | T.Texp_tuple es -> List.for_all is_static_const es
  | T.Texp_variant (_, Some e) -> is_static_const e
  | T.Texp_variant (_, None) -> true
  | _ -> false

(* --- Free variables (closure allocation) ------------------------------- *)

let rec pat_idents : type k. k T.general_pattern -> string list =
 fun p ->
  match p.pat_desc with
  | T.Tpat_var (id, _) -> [ Ident.unique_name id ]
  | T.Tpat_alias (p, id, _) -> Ident.unique_name id :: pat_idents p
  | T.Tpat_tuple ps -> List.concat_map pat_idents ps
  | T.Tpat_construct (_, _, ps, _) -> List.concat_map pat_idents ps
  | T.Tpat_variant (_, Some p, _) -> pat_idents p
  | T.Tpat_record (fields, _) ->
      List.concat_map (fun (_, _, p) -> pat_idents p) fields
  | T.Tpat_array ps -> List.concat_map pat_idents ps
  | T.Tpat_lazy p -> pat_idents p
  | T.Tpat_or (a, b, _) -> pat_idents a @ pat_idents b
  | T.Tpat_value v -> pat_idents (v :> T.value T.general_pattern)
  | T.Tpat_exception p -> pat_idents p
  | _ -> []

(* A function with no free variables is allocated statically by the
   compiler, so only closures that actually capture something count as
   allocations. [extra_bound] carries the names bound by an enclosing
   [let rec] group whose right-hand sides we are inside: a recursive
   reference to a closed function is resolved statically, not captured. *)
let free_variables ~globals ~extra_bound (e : T.expression) =
  let used = Hashtbl.create 16 and bound = Hashtbl.create 16 in
  let bind ids = List.iter (fun i -> Hashtbl.replace bound i ()) ids in
  let it =
      {
        TI.default_iterator with
        expr =
          (fun self e ->
            (match e.exp_desc with
            | T.Texp_ident (Path.Pident id, _, _) ->
                Hashtbl.replace used (Ident.unique_name id) ()
            | T.Texp_function { param; cases; _ } ->
                bind [ Ident.unique_name param ];
                List.iter (fun (c : _ T.case) -> bind (pat_idents c.c_lhs))
                  cases
            | T.Texp_match (_, cases, _) ->
                List.iter (fun (c : _ T.case) -> bind (pat_idents c.c_lhs))
                  cases
            | T.Texp_try (_, cases) ->
                List.iter (fun (c : _ T.case) -> bind (pat_idents c.c_lhs))
                  cases
            | T.Texp_let (_, vbs, _) ->
                List.iter
                  (fun (vb : T.value_binding) -> bind (pat_idents vb.vb_pat))
                  vbs
            | T.Texp_for (id, _, _, _, _, _) -> bind [ Ident.unique_name id ]
            | _ -> ());
            TI.default_iterator.expr self e);
      }
  in
  it.expr it e;
  Hashtbl.fold
    (fun k () acc ->
      if
        Hashtbl.mem bound k || Hashtbl.mem globals k
        || List.mem k extra_bound
      then acc
      else k :: acc)
    used []

(* --- Per-unit extraction ----------------------------------------------- *)

type ctx = {
  unit_name : string;
  aliases : (string, string) Hashtbl.t;  (* local module -> canonical *)
  def_idents : (string, string) Hashtbl.t;  (* Ident.unique_name -> key *)
  mutable file_allows : string list;
  mutable all_bad : (Location.t * string) list;
  (* per-def walk state *)
  mutable events : event list;  (* reversed *)
  mutable scopes : string list list;
  mutable rec_bound : string list;
}

let active_allows ctx =
  ctx.file_allows @ List.concat ctx.scopes

let record_bad ctx bad = ctx.all_bad <- bad @ ctx.all_bad

let with_allows ctx attrs f =
  let ok, bad = allow_partition attrs in
  record_bad ctx bad;
  match ok with
  | [] -> f ()
  | _ ->
      ctx.scopes <- ok :: ctx.scopes;
      Fun.protect ~finally:(fun () -> ctx.scopes <- List.tl ctx.scopes) f

let push_event ctx ev = ctx.events <- ev :: ctx.events

let record_alloc ctx loc what =
  push_event ctx
    (Alloc { a_loc = loc; a_what = what; a_allowed = active_allows ctx })

(* Candidate canonical keys for a reference, best first. *)
let candidates ctx (p : Path.t) =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt ctx.def_idents (Ident.unique_name id) with
      | Some key -> [ key ]
      | None -> [])
  | _ -> (
      let raw = Lint_cmt.canonical_path (Path.name p) in
      match String.split_on_char '.' raw with
      | head :: rest -> (
          match Hashtbl.find_opt ctx.aliases head with
          | Some target ->
              [ String.concat "." (target :: rest);
                ctx.unit_name ^ "." ^ raw ]
          | None -> [ raw; ctx.unit_name ^ "." ^ raw ])
      | [] -> [ raw ])

let label_name = function
  | Asttypes.Nolabel -> None
  | Asttypes.Labelled s | Asttypes.Optional s -> Some s

let arg_ident (a : T.expression option) =
  match a with
  | Some { exp_desc = T.Texp_ident (Path.Pident id, _, _); _ } ->
      Some (Ident.unique_name id)
  | _ -> None

let record_apply ctx (p : Path.t) (fn : T.expression) (whole : T.expression)
    args =
  let loc = fn.exp_loc in
  let cands = candidates ctx p in
  (match cands with
  | c :: _ -> (
      match alloc_prim_of c with
      | Some what -> record_alloc ctx loc what
      | None ->
          if List.mem c float_prims then
            record_alloc ctx loc "boxed float arithmetic"
          else if List.mem c poly_prims then (
            match args with
            | (_, Some a) :: _ when not (is_immediate_type a.exp_type) ->
                record_alloc ctx loc
                  (Printf.sprintf
                     "polymorphic primitive (%s) on non-immediate operands"
                     (last_component c))
            | _ -> ()))
  | [] -> ());
  (* partial application allocates the intermediate closure *)
  if List.exists (fun (_, a) -> a = None) args then
    record_alloc ctx loc "partial application (intermediate closure)"
  else if is_arrow_type whole.exp_type then
    record_alloc ctx loc "partial application (result is a function)";
  push_event ctx
    (Call
       {
         c_loc = loc;
         candidates = cands;
         args = List.map (fun (l, a) -> (label_name l, arg_ident a)) args;
         c_allowed = active_allows ctx;
       })

let body_iterator ctx =
  let expr (self : TI.iterator) (e : T.expression) =
    with_allows ctx e.exp_attributes @@ fun () ->
    match e.exp_desc with
    | T.Texp_ident (p, _, _) -> (
        (* a bare reference to a repo function: conservative call edge *)
        match candidates ctx p with
        | [] -> ()
        | cands ->
            push_event ctx
              (Call
                 {
                   c_loc = e.exp_loc;
                   candidates = cands;
                   args = [];
                   c_allowed = active_allows ctx;
                 }))
    | T.Texp_apply (({ exp_desc = T.Texp_ident (p, _, _); _ } as fn), args) ->
        with_allows ctx fn.exp_attributes (fun () ->
            record_apply ctx p fn e args);
        List.iter (fun (_, a) -> Option.iter (self.expr self) a) args
    | T.Texp_apply (fn, args) ->
        if List.exists (fun (_, a) -> a = None) args then
          record_alloc ctx e.exp_loc "partial application (intermediate closure)";
        self.expr self fn;
        List.iter (fun (_, a) -> Option.iter (self.expr self) a) args
    | T.Texp_function _ ->
        (match
           free_variables ~globals:ctx.def_idents
             ~extra_bound:ctx.rec_bound e
         with
        | [] -> ()  (* closed: statically allocated *)
        | _ ->
            record_alloc ctx e.exp_loc
              "closure construction (captures its environment; hoist the \
               local function and pass its captures explicitly)");
        TI.default_iterator.expr self e
    | T.Texp_let (Asttypes.Recursive, vbs, body) ->
        let bound =
          List.concat_map (fun (vb : T.value_binding) -> pat_idents vb.vb_pat)
            vbs
        in
        let saved = ctx.rec_bound in
        ctx.rec_bound <- bound @ saved;
        List.iter (self.value_binding self) vbs;
        ctx.rec_bound <- saved;
        self.expr self body
    | T.Texp_tuple _ when not (is_static_const e) ->
        record_alloc ctx e.exp_loc "tuple";
        TI.default_iterator.expr self e
    | T.Texp_construct (_, cd, args) when args <> [] && not (is_static_const e)
      ->
        record_alloc ctx e.exp_loc
          (match cd.Types.cstr_name with
          | "::" -> "list cons"
          | "Some" -> "Some boxing (optional argument or option result)"
          | name -> Printf.sprintf "constructor %s (heap block)" name);
        TI.default_iterator.expr self e
    | T.Texp_variant (_, Some _) when not (is_static_const e) ->
        record_alloc ctx e.exp_loc "polymorphic variant";
        TI.default_iterator.expr self e
    | T.Texp_record _ ->
        record_alloc ctx e.exp_loc "record";
        TI.default_iterator.expr self e
    | T.Texp_array _ ->
        record_alloc ctx e.exp_loc "array literal";
        TI.default_iterator.expr self e
    | T.Texp_lazy _ ->
        record_alloc ctx e.exp_loc "lazy suspension";
        TI.default_iterator.expr self e
    | T.Texp_pack _ ->
        record_alloc ctx e.exp_loc "first-class module";
        TI.default_iterator.expr self e
    | _ -> TI.default_iterator.expr self e
  in
  let value_binding (self : TI.iterator) (vb : T.value_binding) =
    with_allows ctx vb.T.vb_attributes @@ fun () ->
    TI.default_iterator.value_binding self vb
  in
  { TI.default_iterator with expr; value_binding }

(* Peel the currying spine of a definition: parameters in order, then the
   body expressions (all case bodies and guards for a [function] arm). *)
let rec peel params (e : T.expression) =
  match e.exp_desc with
  | T.Texp_function { arg_label; param; cases; _ } -> (
      let params = params @ [ (label_name arg_label, Ident.unique_name param) ] in
      match cases with
      | [ { c_guard = None; c_rhs; _ } ] -> peel params c_rhs
      | cases ->
          ( params,
            List.concat_map
              (fun (c : _ T.case) ->
                (match c.c_guard with Some g -> [ g ] | None -> [])
                @ [ c.c_rhs ])
              cases ))
  | _ -> (params, [ e ])

(* Pass A: collect aliases and definition keys (so forward references and
   mutual recursion resolve); Pass B: walk each body. *)

type pending = {
  p_key : string;
  p_loc : Location.t;
  p_hot : bool;
  p_allowed : string list;
  p_expr : T.expression;
}

let rec collect_structure ctx ~prefix (str : T.structure) acc =
  List.fold_left
    (fun acc (item : T.structure_item) ->
      match item.str_desc with
      | T.Tstr_value (_, vbs) ->
          List.fold_left
            (fun acc (vb : T.value_binding) ->
              let ok, bad = allow_partition vb.vb_attributes in
              record_bad ctx bad;
              match vb.vb_pat.pat_desc with
              | T.Tpat_var (id, name) ->
                  let key = prefix ^ name.txt in
                  Hashtbl.replace ctx.def_idents (Ident.unique_name id) key;
                  {
                    p_key = key;
                    p_loc = vb.vb_loc;
                    p_hot = is_hot_attrs vb.vb_attributes;
                    p_allowed = ok;
                    p_expr = vb.vb_expr;
                  }
                  :: acc
              | _ ->
                  (* anonymous top-level binding: analyzable, never hot *)
                  {
                    p_key = prefix ^ "_toplevel";
                    p_loc = vb.vb_loc;
                    p_hot = false;
                    p_allowed = ok;
                    p_expr = vb.vb_expr;
                  }
                  :: acc)
            acc vbs
      | T.Tstr_module mb -> collect_module ctx ~prefix mb acc
      | T.Tstr_recmodule mbs ->
          List.fold_left (fun acc mb -> collect_module ctx ~prefix mb acc) acc
            mbs
      | T.Tstr_attribute a ->
          let ok, bad = allow_partition [ a ] in
          record_bad ctx bad;
          ctx.file_allows <- ok @ ctx.file_allows;
          acc
      | _ -> acc)
    acc str.str_items

and collect_module ctx ~prefix (mb : T.module_binding) acc =
  let name =
    match mb.mb_id with
    | Some id -> Ident.name id
    | None -> (
        match mb.mb_name.txt with Some n -> n | None -> "_")
  in
  let rec strip (me : T.module_expr) =
    match me.mod_desc with
    | T.Tmod_constraint (me, _, _, _) -> strip me
    | desc -> desc
  in
  match strip mb.mb_expr with
  | T.Tmod_ident (p, _) ->
      let target =
        let raw = Lint_cmt.canonical_path (Path.name p) in
        match String.split_on_char '.' raw with
        | head :: rest -> (
            match Hashtbl.find_opt ctx.aliases head with
            | Some t -> String.concat "." (t :: rest)
            | None -> raw)
        | [] -> raw
      in
      Hashtbl.replace ctx.aliases name target;
      acc
  | T.Tmod_structure str ->
      collect_structure ctx ~prefix:(prefix ^ name ^ ".") str acc
  | _ -> acc

let extract (u : Lint_cmt.unit_source) =
  let ctx =
    {
      unit_name = u.name;
      aliases = Hashtbl.create 16;
      def_idents = Hashtbl.create 64;
      file_allows = [];
      all_bad = [];
      events = [];
      scopes = [];
      rec_bound = [];
    }
  in
  let pending =
    List.rev (collect_structure ctx ~prefix:(u.name ^ ".") u.structure [])
  in
  let defs =
    List.map
      (fun p ->
        ctx.events <- [];
        ctx.scopes <- [];
        ctx.rec_bound <- [];
        let params, bodies = peel [] p.p_expr in
        let it = body_iterator ctx in
        List.iter (fun b -> it.expr it b) bodies;
        {
          key = p.p_key;
          d_loc = p.p_loc;
          hot = p.p_hot;
          params;
          d_allowed = p.p_allowed;
          events = List.rev ctx.events;
        })
      pending
  in
  let context = Lint.context_of_path u.source in
  {
    u_name = u.name;
    u_source = u.source;
    u_lib = context.Lint.lib;
    defs;
    bad_allows = List.rev ctx.all_bad;
  }

(* --- The global call graph --------------------------------------------- *)

type graph = {
  units : unit_info list;
  table : (string, unit_info * def) Hashtbl.t;  (* key -> owning unit, def *)
}

let build units =
  let table = Hashtbl.create 256 in
  List.iter
    (fun u ->
      List.iter
        (fun d ->
          if not (Hashtbl.mem table d.key) then Hashtbl.add table d.key (u, d))
        u.defs)
    units;
  { units; table }

let resolve g (c : call) =
  let rec go = function
    | [] -> None
    | k :: rest -> (
        match Hashtbl.find_opt g.table k with
        | Some (u, d) -> Some (k, u, d)
        | None -> go rest)
  in
  go c.candidates

(* Map each call argument onto the callee's parameter index: labelled
   arguments match the parameter with the same label, positional ones
   pair up with the positional parameters in order. *)
let arg_param_indices (callee : def) (c : call) =
  let params = Array.of_list callee.params in
  let n = Array.length params in
  let positional =
    (* indices of unlabelled params, in order *)
    let rec go i acc =
      if i >= n then List.rev acc
      else go (i + 1) (if fst params.(i) = None then i :: acc else acc)
    in
    go 0 []
  in
  let rec assign args positional acc =
    match args with
    | [] -> List.rev acc
    | (label, ident) :: rest -> (
        match label with
        | None -> (
            match positional with
            | p :: ptail -> assign rest ptail ((p, ident) :: acc)
            | [] -> assign rest [] ((-1, ident) :: acc))
        | Some l ->
            let idx = ref (-1) in
            for i = 0 to n - 1 do
              if fst params.(i) = Some l then idx := i
            done;
            assign rest positional ((!idx, ident) :: acc))
  in
  assign c.args positional []

(* Interprocedural summaries for P1: [released_params g key] is the set
   of parameter indices whose transaction is (transitively) released by
   calling the function; same for acquisitions. Calls through the
   rollback layer are the sanctioned exception and do not propagate. *)

type summaries = {
  released : (string, int list) Hashtbl.t;
  acquired : (string, int list) Hashtbl.t;
}

let lock_summaries g =
  let released = Hashtbl.create 64 and acquired = Hashtbl.create 64 in
  let param_index_of_ident (d : def) ident =
    let rec go i = function
      | [] -> -1
      | (_, p) :: rest -> if String.equal p ident then i else go (i + 1) rest
    in
    go 0 d.params
  in
  let step tbl prim_matches summary_tbl =
    (* one propagation pass; returns whether anything grew *)
    let grew = ref false in
    List.iter
      (fun u ->
        List.iter
          (fun d ->
            if not (is_rollback_key d.key) then
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt tbl d.key)
              in
              let add i =
                if i >= 0 && not (List.mem i cur || List.mem i
                                  (Option.value ~default:[]
                                     (Hashtbl.find_opt tbl d.key)))
                then begin
                  Hashtbl.replace tbl d.key
                    (i
                    :: Option.value ~default:[] (Hashtbl.find_opt tbl d.key));
                  grew := true
                end
              in
              List.iter
                (function
                  | Call c -> (
                      let direct =
                        List.exists
                          (fun k ->
                            (not (is_rollback_key k)) && prim_matches k)
                          c.candidates
                      in
                      if direct then begin
                        (* the txn is the second positional argument *)
                        let positional =
                          List.filter (fun (l, _) -> l = None) c.args
                        in
                        match List.nth_opt positional lock_prim_txn_pos with
                        | Some (_, Some ident) ->
                            add (param_index_of_ident d ident)
                        | _ -> ()
                      end
                      else
                        match resolve g c with
                        | Some (k, _, callee)
                          when not (is_rollback_key k) -> (
                            match Hashtbl.find_opt summary_tbl k with
                            | Some idxs ->
                                List.iter
                                  (fun (pidx, ident) ->
                                    match ident with
                                    | Some ident when List.mem pidx idxs ->
                                        add (param_index_of_ident d ident)
                                    | _ -> ())
                                  (arg_param_indices callee c)
                            | None -> ())
                        | _ -> ())
                  | Alloc _ -> ())
                d.events)
          u.defs)
      g.units;
    !grew
  in
  let fix tbl prim_matches =
    while step tbl prim_matches tbl do
      ()
    done
  in
  fix released (fun k -> lock_prim_of k = Lp_release);
  fix acquired (fun k -> lock_prim_of k = Lp_acquire);
  { released; acquired }
