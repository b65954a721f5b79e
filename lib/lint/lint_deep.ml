(* The typed deep pass: A1 (allocation-free hot paths), P1 (static
   two-phase locking discipline) and H1 (unchecked access confined to
   [lib/util]), applied to the event streams Lint_graph distills from
   typed trees.

   A1 closes the call graph from every [[@hot]] root: an allocation
   anywhere in the reachable set is a violation, attributed back to its
   root through the discovery chain. A binding-level
   [[@lint.allow "A1: why"]] vouches for the whole subtree hanging off
   that definition (the annotation is the reviewed boundary between the
   steady-state lane and machinery that allocates by design); an
   expression-level allow vouches for one call site.

   P1 tracks, per definition in [lib/core]/[lib/distrib], which
   transaction variables have had a lock released (directly or through a
   callee's interprocedural summary) and flags any later acquire for the
   same variable — unless the call routes through the rollback layer,
   which is the partial-rollback exception of the source paper.

   H1 keeps the [unsafe_*] primitives of [Array], [Bytes], [String] and
   [Float] inside [lib/util]. *)

module G = Lint_graph

let violation rule (loc : Location.t) message =
  let p = loc.loc_start in
  {
    Lint.file = p.pos_fname;
    line = p.pos_lnum;
    col = p.pos_cnum - p.pos_bol;
    rule;
    message;
  }

let allowed id l = List.mem id l

(* --- A1 ---------------------------------------------------------------- *)

let a1_check (g : G.graph) =
  let parents : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let roots =
    List.concat_map
      (fun (u : G.unit_info) ->
        List.filter_map
          (fun (d : G.def) -> if d.hot then Some d.key else None)
          u.defs)
      g.units
    |> List.sort String.compare
  in
  List.iter
    (fun k ->
      if not (Hashtbl.mem parents k) then begin
        Hashtbl.add parents k None;
        Queue.add k queue
      end)
    roots;
  let out = ref [] in
  let chain k =
    let rec up k acc =
      match Hashtbl.find_opt parents k with
      | Some (Some p) -> up p (p :: acc)
      | _ -> acc
    in
    up k []
  in
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    match Hashtbl.find_opt g.table key with
    | None -> ()
    | Some (_, d) ->
        if not (allowed "A1" d.d_allowed) then
          List.iter
            (fun ev ->
              match ev with
              | G.Alloc a ->
                  if not (allowed "A1" a.a_allowed) then
                    let path = chain key in
                    let where =
                      match path with
                      | [] -> Printf.sprintf "in [@hot] %s" key
                      | root :: _ ->
                          Printf.sprintf "in %s, reachable from [@hot] %s%s"
                            key root
                            (match path with
                            | [ _ ] -> ""
                            | _ ->
                                " via "
                                ^ String.concat " -> " (List.tl path))
                    in
                    out :=
                      violation Lint.A1 a.a_loc
                        (Printf.sprintf
                           "heap allocation (%s) %s; hot paths must be \
                            allocation-free (suppress with [@lint.allow \
                            \"A1: rationale\"])"
                           a.a_what where)
                      :: !out
              | G.Call c ->
                  if not (allowed "A1" c.c_allowed) then (
                    match G.resolve g c with
                    | Some (k, _, _) when not (Hashtbl.mem parents k) ->
                        Hashtbl.add parents k (Some key);
                        Queue.add k queue
                    | _ -> ()))
            d.events
  done;
  List.rev !out

(* --- P1 ---------------------------------------------------------------- *)

let p1_units = [ "core"; "distrib" ]

let p1_check (g : G.graph) =
  let s = G.lock_summaries g in
  let out = ref [] in
  List.iter
    (fun (u : G.unit_info) ->
      match u.u_lib with
      | Some lib when List.mem lib p1_units ->
          List.iter
            (fun (d : G.def) ->
              if not (allowed "P1" d.d_allowed) then begin
                let released = Hashtbl.create 8 in
                List.iter
                  (fun ev ->
                    match ev with
                    | G.Call c ->
                        let rollback =
                          List.exists G.is_rollback_key c.candidates
                        in
                        if not rollback then begin
                          let positional =
                            List.filter (fun (l, _) -> l = None) c.args
                          in
                          let prim =
                            List.fold_left
                              (fun acc k ->
                                match acc with
                                | G.Lp_none -> G.lock_prim_of k
                                | _ -> acc)
                              G.Lp_none c.candidates
                          in
                          let flags = ref [] and rels = ref [] in
                          (match prim with
                          | G.Lp_acquire -> (
                              match
                                List.nth_opt positional G.lock_prim_txn_pos
                              with
                              | Some (_, Some id) when Hashtbl.mem released id
                                ->
                                  flags := [ c.c_loc ]
                              | _ -> ())
                          | G.Lp_release -> (
                              match
                                List.nth_opt positional G.lock_prim_txn_pos
                              with
                              | Some (_, Some id) -> rels := [ id ]
                              | _ -> ())
                          | G.Lp_none -> (
                              match G.resolve g c with
                              | Some (k, _, callee)
                                when not (G.is_rollback_key k) ->
                                  let pairs = G.arg_param_indices callee c in
                                  let acq =
                                    Option.value ~default:[]
                                      (Hashtbl.find_opt s.G.acquired k)
                                  and rel =
                                    Option.value ~default:[]
                                      (Hashtbl.find_opt s.G.released k)
                                  in
                                  List.iter
                                    (fun (pidx, ident) ->
                                      match ident with
                                      | Some id ->
                                          if
                                            List.mem pidx acq
                                            && Hashtbl.mem released id
                                          then flags := c.c_loc :: !flags;
                                          if List.mem pidx rel then
                                            rels := id :: !rels
                                      | None -> ())
                                    pairs
                              | _ -> ()));
                          if not (allowed "P1" c.c_allowed) then
                            List.iter
                              (fun loc ->
                                out :=
                                  violation Lint.P1 loc
                                    (Printf.sprintf
                                       "lock acquired for a transaction \
                                        after one of its locks was released \
                                        (in %s): the growth phase has ended; \
                                        re-acquisition is only legitimate \
                                        through the rollback layer \
                                        (partial-rollback exception)"
                                       d.key)
                                  :: !out)
                              !flags;
                          List.iter
                            (fun id -> Hashtbl.replace released id ())
                            !rels
                        end
                    | G.Alloc _ -> ())
                  d.events
              end)
            u.defs
      | _ -> ())
    g.units;
  List.rev !out

(* --- H1 ---------------------------------------------------------------- *)

let h1_check (g : G.graph) =
  let out = ref [] in
  List.iter
    (fun (u : G.unit_info) ->
      if u.u_lib <> Some "util" then
        List.iter
          (fun (d : G.def) ->
            if not (allowed "H1" d.d_allowed) then
              List.iter
                (function
                  | G.Call c
                    when (not (allowed "H1" c.c_allowed))
                         && List.exists G.is_unsafe_key c.candidates ->
                      out :=
                        violation Lint.H1 c.c_loc
                          "unchecked access (unsafe_* primitive) outside \
                           lib/util: bounds discipline is centralized there"
                        :: !out
                  | _ -> ())
                d.events)
          u.defs)
    g.units;
  List.rev !out

(* --- Driver ------------------------------------------------------------ *)

let meta_violations (units : G.unit_info list) =
  List.concat_map
    (fun (u : G.unit_info) ->
      List.map
        (fun (loc, id) ->
          let rule =
            match Lint.rule_of_id id with Some r -> r | None -> Lint.A1
          in
          violation rule loc
            (Printf.sprintf
               "suppressing %s requires a rationale: write [@lint.allow \
                \"%s: why this site is exempt\"]"
               id id))
        u.bad_allows)
    units

let analyze (sources : Lint_cmt.unit_source list) =
  let units = List.map G.extract sources in
  let g = G.build units in
  List.sort Lint.compare_violation
    (meta_violations units @ a1_check g @ p1_check g @ h1_check g)

let check_source ~file source =
  match Lint_cmt.unit_of_source ~file source with
  | Error _ as e -> e
  | Ok u -> Ok (analyze [ u ])

let check_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | source -> check_source ~file source

(* Locate the tree to analyze. From a source checkout this is
   [_build/default/lib] (dune always builds with -bin-annot); when the
   linter itself runs inside the build context (the @lint-deep alias) the
   current root already contains the .objs directories. *)
let rec find_project_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_project_root parent

let scan_build ?root () =
  let root =
    match root with
    | Some r -> r
    | None -> (
        match find_project_root (Sys.getcwd ()) with
        | Some r -> r
        | None -> Sys.getcwd ())
  in
  let candidate = Filename.concat root "_build/default" in
  let base =
    if Sys.file_exists (Filename.concat candidate "lib") then candidate
    else root
  in
  let units, errs = Lint_cmt.load_units (Filename.concat base "lib") in
  if units = [] then
    ( [],
      ( Filename.concat base "lib",
        "no .cmt files found (run a dune build first: dune emits bin-annot \
         by default)" )
      :: errs )
  else (analyze units, errs)
