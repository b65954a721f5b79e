module Value = Prb_storage.Value

type entity = Prb_storage.Store.entity
type var = Expr.var

type op =
  | Lock of Lock_mode.t * entity
  | Unlock of entity
  | Read of entity * var
  | Write of entity * Expr.t
  | Assign of var * Expr.t

type t = {
  name : string;
  locals : (var * Value.t) list;
  ops : op array;
  valid : bool;
}

type violation =
  | Lock_after_unlock
  | Already_locked of entity
  | Unlock_not_held of entity
  | Read_without_lock of entity
  | Write_without_exclusive of entity
  | Undeclared_variable of var

let pp_violation ppf = function
  | Lock_after_unlock -> Fmt.string ppf "lock request after an unlock"
  | Already_locked e -> Fmt.pf ppf "entity %s already locked" e
  | Unlock_not_held e -> Fmt.pf ppf "unlock of %s which is not held" e
  | Read_without_lock e -> Fmt.pf ppf "read of %s without a lock" e
  | Write_without_exclusive e ->
      Fmt.pf ppf "write of %s without an exclusive lock" e
  | Undeclared_variable v -> Fmt.pf ppf "undeclared local variable %s" v

(* Every violation, in program order: the tables are built only once the
   verdict pass below has found one. *)
let violations t =
  let held : (entity, Lock_mode.t) Hashtbl.t = Hashtbl.create 8 in
  let declared = Hashtbl.create 8 in
  List.iter (fun (v, _) -> Hashtbl.replace declared v ()) t.locals;
  let unlocked = ref false in
  let errs = ref [] in
  let report i v = errs := (i, v) :: !errs in
  let check_vars i expr =
    List.iter
      (fun v -> if not (Hashtbl.mem declared v) then report i (Undeclared_variable v))
      (Expr.vars expr)
  in
  Array.iteri
    (fun i op ->
      match op with
      | Lock (mode, e) ->
          if !unlocked then report i Lock_after_unlock;
          if Hashtbl.mem held e then report i (Already_locked e)
          else Hashtbl.replace held e mode
      | Unlock e ->
          if Hashtbl.mem held e then begin
            Hashtbl.remove held e;
            unlocked := true
          end
          else report i (Unlock_not_held e)
      | Read (e, v) ->
          if not (Hashtbl.mem held e) then report i (Read_without_lock e);
          if not (Hashtbl.mem declared v) then report i (Undeclared_variable v)
      | Write (e, expr) ->
          (match Hashtbl.find_opt held e with
          | Some Lock_mode.Exclusive -> ()
          | Some Lock_mode.Shared | None ->
              report i (Write_without_exclusive e));
          check_vars i expr
      | Assign (v, expr) ->
          if not (Hashtbl.mem declared v) then report i (Undeclared_variable v);
          check_vars i expr)
    t.ops;
  match List.rev !errs with [] -> Ok () | errs -> Error errs

(* The verdict alone, allocating nothing. Over a prefix that broke no
   rule an entity is locked at most once and never after an unlock, so it
   is held exactly when the latest lock-discipline op naming it is its
   [Lock]: a backward scan answers what [violations] keeps a table for. *)
let rec last_lock_op ops e i =
  if i < 0 then -1
  else
    match ops.(i) with
    | (Lock (_, e') | Unlock e') when String.equal e e' -> i
    | Lock _ | Unlock _ | Read _ | Write _ | Assign _ ->
        last_lock_op ops e (i - 1)

let held_at ops e i =
  let j = last_lock_op ops e (i - 1) in
  j >= 0
  &&
  match ops.(j) with
  | Lock _ -> true
  | Unlock _ | Read _ | Write _ | Assign _ -> false

let held_exclusive_at ops e i =
  let j = last_lock_op ops e (i - 1) in
  j >= 0
  &&
  match ops.(j) with
  | Lock (Lock_mode.Exclusive, _) -> true
  | Lock (Lock_mode.Shared, _) | Unlock _ | Read _ | Write _ | Assign _ ->
      false

let rec declared v = function
  | [] -> false
  | (w, _) :: rest -> String.equal v w || declared v rest

let rec all_declared locals = function
  | Expr.Const _ -> true
  | Expr.Var v -> declared v locals
  | Expr.Add (a, b)
  | Expr.Sub (a, b)
  | Expr.Mul (a, b)
  | Expr.Min (a, b)
  | Expr.Max (a, b) ->
      all_declared locals a && all_declared locals b
  | Expr.Neg a | Expr.Mix a -> all_declared locals a

let rec valid_from ops locals ~unlocked i =
  i >= Array.length ops
  ||
  match ops.(i) with
  | Lock (_, e) ->
      (not unlocked)
      && (not (held_at ops e i))
      && valid_from ops locals ~unlocked (i + 1)
  | Unlock e -> held_at ops e i && valid_from ops locals ~unlocked:true (i + 1)
  | Read (e, v) ->
      held_at ops e i && declared v locals
      && valid_from ops locals ~unlocked (i + 1)
  | Write (e, x) ->
      held_exclusive_at ops e i
      && all_declared locals x
      && valid_from ops locals ~unlocked (i + 1)
  | Assign (v, x) ->
      declared v locals && all_declared locals x
      && valid_from ops locals ~unlocked (i + 1)

let rec distinct = function
  | [] -> true
  | (v, _) :: rest -> (not (declared v rest)) && distinct rest

(* The verdict is decided here, once per program, so admission and the
   generator read it instead of scanning the ops again. *)
let make ~name ~locals ops =
  if not (distinct locals) then
    invalid_arg "Program.make: duplicate local variable";
  let ops = Array.of_list ops in
  { name; locals; ops; valid = valid_from ops locals ~unlocked:false 0 }

(* A reordered copy: the transforms preserve validity, but the verdict is
   the new ops' own. *)
let with_ops t ops =
  { t with ops; valid = valid_from ops t.locals ~unlocked:false 0 }

let validate t = if t.valid then Ok () else violations t

let length t = Array.length t.ops

let n_locks t =
  Array.fold_left
    (fun acc op -> match op with Lock _ -> acc + 1 | _ -> acc)
    0 t.ops

let lock_index_of_op t pos =
  let count = ref 0 in
  for i = 0 to min (pos - 1) (Array.length t.ops - 1) do
    match t.ops.(i) with Lock _ -> incr count | _ -> ()
  done;
  !count

let lock_op_position t k =
  let seen = ref 0 in
  let found = ref (-1) in
  Array.iteri
    (fun i op ->
      match op with
      | Lock _ ->
          if !seen = k && !found < 0 then found := i;
          incr seen
      | _ -> ())
    t.ops;
  if !found < 0 then invalid_arg "Program.lock_op_position: no such lock";
  !found

let lock_at t k =
  match t.ops.(lock_op_position t k) with
  | Lock (mode, e) -> (mode, e)
  | _ -> assert false

let lock_state_of_entity t e =
  let rec scan k i =
    if i >= Array.length t.ops then None
    else
      match t.ops.(i) with
      | Lock (_, e') when String.equal e e' -> Some k
      | Lock _ -> scan (k + 1) (i + 1)
      | _ -> scan k (i + 1)
  in
  scan 0 0

let last_lock_position t =
  let found = ref None in
  Array.iteri (fun i op -> match op with Lock _ -> found := Some i | _ -> ()) t.ops;
  !found

let is_three_phase t =
  let n = n_locks t in
  let ok = ref true in
  Array.iteri
    (fun i op ->
      match op with
      | Write _ -> if lock_index_of_op t i < n then ok := false
      | Lock _ | Unlock _ | Read _ | Assign _ -> ())
    t.ops;
  !ok

(* A Read destroys its target local's previous value just like an Assign
   does — the paper's Section 4 monitoring covers "all write operations to
   both local variables and global entities". *)
let written_object = function
  | Write (e, _) -> Some ("G:" ^ e)
  | Assign (v, _) | Read (_, v) -> Some ("L:" ^ v)
  | Lock _ | Unlock _ -> None

let write_profile t =
  let profile : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i op ->
      match written_object op with
      | Some key ->
          let idx = lock_index_of_op t i in
          (match Hashtbl.find_opt profile key with
          | Some l -> l := idx :: !l
          | None -> Hashtbl.replace profile key (ref [ idx ]))
      | None -> ())
    t.ops;
  Hashtbl.fold (fun key l acc -> (key, List.rev !l) :: acc) profile []
  |> List.sort compare

let damage_span t =
  List.fold_left
    (fun acc (_, segments) ->
      match segments with
      | [] -> acc
      | first :: _ ->
          let last = List.fold_left max first segments in
          acc + (last - first))
    0 (write_profile t)

(* Objects read / written by an operation, for commutation analysis.
   Lock/Unlock count as writers of their entity so data operations never
   cross the lock boundary of the entity they touch. *)
let reads_writes = function
  | Lock (_, e) | Unlock e -> ([], [ "G:" ^ e ])
  | Read (e, v) -> ([ "G:" ^ e ], [ "L:" ^ v ])
  | Write (e, expr) -> (List.map (fun v -> "L:" ^ v) (Expr.vars expr), [ "G:" ^ e ])
  | Assign (v, expr) ->
      (List.map (fun u -> "L:" ^ u) (Expr.vars expr), [ "L:" ^ v ])

let commute a b =
  let ra, wa = reads_writes a and rb, wb = reads_writes b in
  let disjoint xs ys = not (List.exists (fun x -> List.mem x ys) xs) in
  disjoint wa rb && disjoint wa wb && disjoint wb ra

let movable = function
  | Write _ | Assign _ -> true
  | Lock _ | Unlock _ | Read _ -> false

(* Is there an earlier operation writing the same object? Only non-first
   writes are clustered leftwards, so an object's first write keeps its
   lock segment and [damage_span] can only shrink. *)
let has_earlier_write ops i =
  match written_object ops.(i) with
  | None -> false
  | Some key ->
      let rec scan j =
        j >= 0 && (written_object ops.(j) = Some key || scan (j - 1))
      in
      scan (i - 1)

let cluster_writes t =
  let ops = Array.copy t.ops in
  let n = Array.length ops in
  (* Bubble non-first writes leftwards towards their object's previous
     write. Each swap is semantics-preserving (operands commute) and
     weakly decreases the damage span, but two commuting writes that both
     want to move left can trade places forever — so the passes are
     bounded: [n] passes let any op travel the whole array, which reaches
     the fixpoint in every non-oscillating case and merely stops early in
     the oscillating ones. *)
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass < n do
    changed := false;
    incr pass;
    for i = 1 to n - 1 do
      if movable ops.(i) && has_earlier_write ops i && commute ops.(i - 1) ops.(i)
      then begin
        let tmp = ops.(i - 1) in
        ops.(i - 1) <- ops.(i);
        ops.(i) <- tmp;
        changed := true
      end
    done
  done;
  with_ops t ops

let make_three_phase t =
  match last_lock_position t with
  | None -> t
  | Some _ ->
      let ops = Array.copy t.ops in
      let last_lock () =
        let found = ref 0 in
        Array.iteri
          (fun i op -> match op with Lock _ -> found := i | _ -> ())
          ops;
        !found
      in
      (* Bubble data operations rightwards until they clear the final
         lock request. Passes are bounded like in [cluster_writes]: two
         commuting writes stuck under a common blocker would otherwise
         trade places forever. *)
      let n = Array.length ops in
      let changed = ref true in
      let pass = ref 0 in
      while !changed && !pass < n do
        changed := false;
        incr pass;
        let boundary = last_lock () in
        for i = n - 2 downto 0 do
          if i < boundary && movable ops.(i) && commute ops.(i) ops.(i + 1)
          then begin
            let tmp = ops.(i + 1) in
            ops.(i + 1) <- ops.(i);
            ops.(i) <- tmp;
            changed := true
          end
        done
      done;
      with_ops t ops

let hoist_locks t =
  let ops = Array.copy t.ops in
  let n = Array.length ops in
  let is_lock = function Lock _ -> true | Unlock _ | Read _ | Write _ | Assign _ -> false in
  let is_barrier = function
    | Lock _ | Unlock _ -> true
    | Read _ | Write _ | Assign _ -> false
  in
  (* Bubble lock requests leftwards past commuting data operations. Locks
     never swap with locks or unlocks (relative lock order is part of the
     transaction's identity, and crossing an unlock would break the
     two-phase shape) and the commutation check stops a lock at any
     operation touching its entity. Bounded passes as in
     [cluster_writes]. *)
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass < n do
    changed := false;
    incr pass;
    for idx = 1 to n - 1 do
      if
        is_lock ops.(idx)
        && (not (is_barrier ops.(idx - 1)))
        && commute ops.(idx - 1) ops.(idx)
      then begin
        let tmp = ops.(idx - 1) in
        ops.(idx - 1) <- ops.(idx);
        ops.(idx) <- tmp;
        changed := true
      end
    done
  done;
  with_ops t ops

let make_acquire_update_release t = make_three_phase (hoist_locks t)

let pp_op ppf = function
  | Lock (m, e) -> Fmt.pf ppf "lock%a(%s)" Lock_mode.pp m e
  | Unlock e -> Fmt.pf ppf "unlock(%s)" e
  | Read (e, v) -> Fmt.pf ppf "%s := read(%s)" v e
  | Write (e, x) -> Fmt.pf ppf "write(%s, %a)" e Expr.pp x
  | Assign (v, x) -> Fmt.pf ppf "%s := %a" v Expr.pp x

let pp ppf t =
  Fmt.pf ppf "@[<v>transaction %s" t.name;
  List.iter (fun (v, x) -> Fmt.pf ppf "@,  local %s = %a" v Value.pp x) t.locals;
  Array.iteri (fun i op -> Fmt.pf ppf "@,  %2d: %a" i pp_op op) t.ops;
  Fmt.pf ppf "@]"

let equal_op a b =
  match (a, b) with
  | Lock (m1, e1), Lock (m2, e2) -> Lock_mode.equal m1 m2 && String.equal e1 e2
  | Unlock e1, Unlock e2 -> String.equal e1 e2
  | Read (e1, v1), Read (e2, v2) -> String.equal e1 e2 && String.equal v1 v2
  | Write (e1, x1), Write (e2, x2) -> String.equal e1 e2 && Expr.equal x1 x2
  | Assign (v1, x1), Assign (v2, x2) -> String.equal v1 v2 && Expr.equal x1 x2
  | (Lock _ | Unlock _ | Read _ | Write _ | Assign _), _ -> false

let equal a b =
  String.equal a.name b.name
  && List.length a.locals = List.length b.locals
  && List.for_all2
       (fun (v1, x1) (v2, x2) -> String.equal v1 v2 && Value.equal x1 x2)
       a.locals b.locals
  && Array.length a.ops = Array.length b.ops
  && Array.for_all2 equal_op a.ops b.ops

let lock_x e = Lock (Lock_mode.Exclusive, e)
let lock_s e = Lock (Lock_mode.Shared, e)
let unlock e = Unlock e
let read e v = Read (e, v)
let write e x = Write (e, x)
let assign v x = Assign (v, x)
