module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Entity = Prb_storage.Store.Entity
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Lock_mode = Prb_txn.Lock_mode

type entity = Store.entity
type var = Expr.var

type phase = Growing | Shrinking | Committed

(* Dense per-transaction state. The locals' histories sit in [locals] in
   declaration order. Lock state [k] (0 <= k < lock_idx) is the program's
   k-th lock request: its entity, mode and pc (the position of the lock
   op, which is the state index at that lock state) sit at index [k] of
   [ls_entity], [ls_mode] and [ls_pc], and its shadow history at
   [ls_shadow.(k)] while the entity is held exclusively — [no_history]
   once it is unlocked, and for shared locks. A valid program locks an
   entity at most once, so an entity has at most one lock state. Indices
   at or above [lock_idx] are leftovers of a rollback and never read; a
   rollback resets their shadows to [no_history]. [dispose] empties
   [locals] and [ls_shadow]. *)
type t = {
  id : int;
  program : Program.t;
  strategy : Strategy.t;
  store : Store.t;
  budget : int;
  copy_alloc : (string -> int) option;
      (* [None] skips the per-object key construction entirely — the
         common case; the keys only exist for non-uniform allocation *)
  pool : History_stack.Pool.t option;
  n_locks : int; (* Program.n_locks, cached off the per-write path *)
  env_fun : var -> Value.t; (* one closure over the state for Expr.eval *)
  mutable pc : int;
  mutable lock_idx : int;
  mutable phase : phase;
  mutable locals : History_stack.t array;
  ls_entity : entity array;
  ls_mode : Lock_mode.t array;
  ls_pc : int array;
  mutable ls_shadow : History_stack.t array;
  mutable total_executed : int;
  mutable rollbacks : int;
  mutable ops_lost : int;
  mutable monitored_writes : int;
  mutable peak_copies : int;
  mutable live_copies : int;
      (* Σ over locals and shadows of History_stack.n_copies, maintained
         incrementally so the per-operation accounting is O(1) instead of
         re-summing every history on every step. *)
}

(* The empty slot of [locals] and [ls_shadow]. Never written, so it is
   restorable at every state and never recycled. *)
let no_history =
  History_stack.create ~budget:1 ~created_at:0 ~initial:(Value.int 0)

let object_budget budget copy_alloc prefix name =
  if budget = max_int then budget
  else
    match copy_alloc with
    | None -> budget
    | Some f -> budget + max 0 (f (prefix ^ name))

let acquire_stack pool ~budget ~created_at ~initial =
  match pool with
  | Some p -> History_stack.Pool.acquire p ~budget ~created_at ~initial
  | None -> History_stack.create ~budget ~created_at ~initial

let recycle_stack pool h =
  match pool with Some p -> History_stack.Pool.release p h | None -> ()

(* The slot of a declared local: its position in the declaration list. *)
let rec local_slot v i = function
  | [] -> raise Not_found
  | (w, _) :: rest -> if String.equal v w then i else local_slot v (i + 1) rest

let local_history t v = t.locals.(local_slot v 0 t.program.Program.locals)

let rec fill_locals t i = function
  | [] -> ()
  | (v, init) :: rest ->
      t.locals.(i) <-
        acquire_stack t.pool
          ~budget:(object_budget t.budget t.copy_alloc "L:" v)
          ~created_at:0 ~initial:init;
      fill_locals t (i + 1) rest

let create ?copy_allocation ?pool ~strategy ~id ~store program =
  (match Program.validate program with
  | Ok () -> ()
  | Error ((i, v) :: _) ->
      invalid_arg
        (Fmt.str "Txn_state.create: invalid program %s: op %d: %a"
           program.Program.name i Program.pp_violation v)
  | Error [] -> assert false);
  let n_locks = Program.n_locks program in
  let n_locals = List.length program.Program.locals in
  let rec t =
    {
      id;
      program;
      strategy;
      store;
      budget = Strategy.version_budget strategy;
      copy_alloc = copy_allocation;
      pool;
      n_locks;
      env_fun = (fun v -> History_stack.current (local_history t v));
      pc = 0;
      lock_idx = 0;
      phase = Growing;
      locals = Array.make n_locals no_history;
      ls_entity = Array.make n_locks "";
      ls_mode = Array.make n_locks Lock_mode.Shared;
      ls_pc = Array.make n_locks 0;
      ls_shadow = Array.make n_locks no_history;
      total_executed = 0;
      rollbacks = 0;
      ops_lost = 0;
      monitored_writes = 0;
      peak_copies = 0;
      live_copies = n_locals;
    }
  in
  fill_locals t 0 program.Program.locals;
  t

let id t = t.id
let program t = t.program
let strategy t = t.strategy
let phase t = t.phase

let pp_phase ppf = function
  | Growing -> Fmt.string ppf "growing"
  | Shrinking -> Fmt.string ppf "shrinking"
  | Committed -> Fmt.string ppf "committed"

let pc t = t.pc
let lock_index t = t.lock_idx
let finished t = t.pc >= Program.length t.program

type action =
  | Need_lock of Lock_mode.t * entity
  | Need_unlock of entity
  | Data_step
  | At_end

let[@lint.allow
     "A1: the action variant is the dispatch API between transaction \
      state and scheduler — a short-lived two-word block per executed \
      op, retained nowhere"] next_action t =
  if finished t then At_end
  else
    match t.program.Program.ops.(t.pc) with
    | Program.Lock (m, e) -> Need_lock (m, e)
    | Program.Unlock e -> Need_unlock e
    | Program.Read _ | Program.Write _ | Program.Assign _ -> Data_step

let current_copies t = t.live_copies

let note_copies t =
  if t.live_copies > t.peak_copies then t.peak_copies <- t.live_copies

(* The lock state of an entity, or -1 when it was never granted. An
   unlocked entity keeps its lock state: [holds] and [lock_state_of] still
   answer for it. *)
let rec find_state entities e k =
  if k < 0 then -1
  else if String.equal entities.(k) e then k
  else find_state entities e (k - 1)

let state_of t e = find_state t.ls_entity e (t.lock_idx - 1)

let[@lint.allow
     "A1: an exclusive grant takes the pooled shadow stack the paper \
      charges per lock; it is built fresh only on a pool miss, and its \
      copy_allocation key only under a non-uniform allocation"] shadow_stack
    t e =
  acquire_stack t.pool
    ~budget:(object_budget t.budget t.copy_alloc "G:" e)
    ~created_at:t.lock_idx ~initial:(Store.get t.store e)

let lock_granted t =
  (if finished t then
     invalid_arg "Txn_state.lock_granted: current op is not a lock request"
   else
     match t.program.Program.ops.(t.pc) with
     | Program.Lock (mode, e) ->
         let k = t.lock_idx in
         t.ls_entity.(k) <- e;
         t.ls_mode.(k) <- mode;
         t.ls_pc.(k) <- t.pc;
         (match mode with
         | Lock_mode.Exclusive ->
             t.ls_shadow.(k) <- shadow_stack t e;
             t.live_copies <- t.live_copies + 1
         | Lock_mode.Shared -> ());
         t.lock_idx <- k + 1;
         t.pc <- t.pc + 1;
         t.total_executed <- t.total_executed + 1
     | Program.Unlock _ | Program.Read _ | Program.Write _ | Program.Assign _
       ->
         invalid_arg "Txn_state.lock_granted: current op is not a lock request");
  note_copies t

let local_value t v = History_stack.current (local_history t v)

let holds t e =
  let k = state_of t e in
  if k < 0 then None
  else
    match t.ls_mode.(k) with
    | Lock_mode.Shared -> Some Lock_mode.Shared
    | Lock_mode.Exclusive -> Some Lock_mode.Exclusive

let read_view t e =
  let k = state_of t e in
  if k < 0 then raise Not_found
  else
    let h = t.ls_shadow.(k) in
    if h != no_history then History_stack.current h
    else
      match t.ls_mode.(k) with
      | Lock_mode.Shared -> Store.get t.store e
      | Lock_mode.Exclusive -> assert false (* shadow must exist *)

(* A write may add a version, coalesce in place, or trade a new version
   against an eviction; charge whatever the history's copy count actually
   did. *)
let counted_write t h value =
  let before = History_stack.n_copies h in
  History_stack.write h ~lock_index:t.lock_idx value;
  t.live_copies <- t.live_copies + History_stack.n_copies h - before

let write_local t v value =
  counted_write t (local_history t v) value;
  if t.lock_idx < t.n_locks then t.monitored_writes <- t.monitored_writes + 1

let write_entity t e value =
  let k = state_of t e in
  let h = if k < 0 then no_history else t.ls_shadow.(k) in
  if h == no_history then
    invalid_arg "Txn_state: write to entity without exclusive shadow"
  else begin
    counted_write t h value;
    if t.lock_idx < t.n_locks then t.monitored_writes <- t.monitored_writes + 1
  end

let[@lint.allow
     "A1: data ops evaluate expressions and produce the values they \
      write — value computation allocates its results by \
      design"] exec_data_op t =
  (if finished t then
     invalid_arg "Txn_state.exec_data_op: current op is not a data op"
   else
     match t.program.Program.ops.(t.pc) with
     | Program.Read (e, v) -> write_local t v (read_view t e)
     | Program.Write (e, x) -> write_entity t e (Expr.eval t.env_fun x)
     | Program.Assign (v, x) -> write_local t v (Expr.eval t.env_fun x)
     | Program.Lock _ | Program.Unlock _ ->
         invalid_arg "Txn_state.exec_data_op: current op is not a data op");
  t.pc <- t.pc + 1;
  t.total_executed <- t.total_executed + 1;
  note_copies t

(* Retire lock state [k]'s shadow, if it has one, into the pool. *)
let drop_shadow t k =
  let h = t.ls_shadow.(k) in
  if h != no_history then begin
    t.live_copies <- t.live_copies - History_stack.n_copies h;
    t.ls_shadow.(k) <- no_history;
    recycle_stack t.pool h
  end

let[@lint.allow
     "A1: retiring the shadow returns the final value for installation; \
      the (entity, option) pair is the API's return shape, once per \
      unlock"] perform_unlock t =
  let fail () =
    invalid_arg "Txn_state.perform_unlock: current op is not an unlock"
  in
  if finished t then fail ()
  else
    match t.program.Program.ops.(t.pc) with
    | Program.Unlock e ->
        let k = state_of t e in
        let final =
          if k >= 0 && t.ls_shadow.(k) != no_history then begin
            let v = History_stack.current t.ls_shadow.(k) in
            drop_shadow t k;
            Some v
          end
          else None
        in
        t.phase <- Shrinking;
        t.pc <- t.pc + 1;
        t.total_executed <- t.total_executed + 1;
        (e, final)
    | Program.Lock _ | Program.Read _ | Program.Write _ | Program.Assign _ ->
        fail ()

(* The lock state of the live shadow with the greatest entity below lock
   state [above]'s (any entity when [above] is -1), or -1 when there is
   none. Called repeatedly it lists the shadows in descending entity
   order, the reverse of the commit finals', without a sort. *)
let rec greatest_shadow_below t above best k =
  if k < 0 then best
  else
    let e = t.ls_entity.(k) in
    let best =
      if
        t.ls_shadow.(k) != no_history
        && (above < 0 || Entity.compare e t.ls_entity.(above) < 0)
        && (best < 0 || Entity.compare e t.ls_entity.(best) > 0)
      then k
      else best
    in
    greatest_shadow_below t above best (k - 1)

let rec finals_below t above acc =
  let k = greatest_shadow_below t above (-1) (t.lock_idx - 1) in
  if k < 0 then acc
  else
    finals_below t k
      ((t.ls_entity.(k), History_stack.current t.ls_shadow.(k)) :: acc)

(* Retire every shadow at lock states [lo, lock_idx), newest first. *)
let drop_shadows_from t lo =
  for k = t.lock_idx - 1 downto lo do
    drop_shadow t k
  done

let commit t =
  if not (finished t) then invalid_arg "Txn_state.commit: program not finished";
  let finals = finals_below t (-1) [] in
  drop_shadows_from t 0;
  t.phase <- Committed;
  finals

let locks_held t =
  let rec from k acc =
    if k < 0 then acc
    else from (k - 1) ((t.ls_entity.(k), t.ls_mode.(k), k) :: acc)
  in
  from (t.lock_idx - 1) []

let lock_state_of t e =
  let k = state_of t e in
  if k < 0 then None else Some k

(* Is every history in [hs.(0 .. i)] restorable at [q]? An empty slot
   always is: [no_history] is never damaged. *)
let rec restorable_upto hs q i =
  i < 0
  || (History_stack.is_restorable hs.(i) q && restorable_upto hs q (i - 1))

let restorable_all t q =
  restorable_upto t.locals q (Array.length t.locals - 1)
  && restorable_upto t.ls_shadow q (t.lock_idx - 1)

let well_defined t q =
  if q < 0 || q > t.lock_idx then false else restorable_all t q

let well_defined_states t =
  let rec from q acc =
    if q < 0 then acc
    else from (q - 1) (if restorable_all t q then q :: acc else acc)
  in
  from t.lock_idx []

(* The pseudo-target [restart_target] (-1) is a full restart: reset to
   pc 0 with declared initial locals and re-execute everything, the
   remove-and-restart of [7,10]. It needs no stored copies and is always
   available. Lock state 0 is distinct: it keeps the pre-lock local
   computation (cost counted from the first lock request, matching
   Figure 1's state-index arithmetic). *)
let restart_target = -1

let rec nearest_restorable t q =
  if q < 0 then restart_target
  else if restorable_all t q then q
  else nearest_restorable t (q - 1)

let target_of_state t k =
  match t.strategy with
  | Strategy.Total -> restart_target
  | Strategy.Mcs -> k
  | Strategy.Sdg | Strategy.Sdg_k _ -> nearest_restorable t k

let rec lowest_state t lowest = function
  | [] -> lowest
  | e :: rest ->
      let k = state_of t e in
      if k < 0 then invalid_arg "Txn_state.rollback_target: entity not held"
      else lowest_state t (if k < lowest then k else lowest) rest

(* The nearest restorable state at or below a lock state never decreases
   as the state grows, so the latest target releasing every entity of a
   set is the target of its lowest lock state: one pass over the set and
   one downward scan of the histories, however many entities. *)
let[@hot] rollback_target_all t es =
  match es with
  | [] -> t.lock_idx
  | _ :: _ -> target_of_state t (lowest_state t t.lock_idx es)

let rollback_target t e =
  let k = state_of t e in
  if k < 0 then invalid_arg "Txn_state.rollback_target: entity not held"
  else target_of_state t k

(* The state index at lock state [q] is the position of its lock request,
   0 for the restart pseudo-target, whose cost is the whole progress. *)
let[@hot] cost_of_target t q =
  if q = restart_target then t.pc
  else if q < 0 || q >= t.lock_idx then
    invalid_arg "Txn_state.cost_of_target: target out of range"
  else t.pc - t.ls_pc.(q)

let cost_to_release t e = cost_of_target t (rollback_target t e)

(* Entities of lock states [lo, lock_idx), newest first. *)
let entities_from t lo =
  let rec up k acc =
    if k >= t.lock_idx then acc else up (k + 1) (t.ls_entity.(k) :: acc)
  in
  up lo []

let counted_truncate t q h =
  let before = History_stack.n_copies h in
  History_stack.truncate h q;
  t.live_copies <- t.live_copies + History_stack.n_copies h - before

let rollback_to t target =
  if t.phase <> Growing then
    invalid_arg "Txn_state.rollback_to: transaction is not in growing phase";
  if target < restart_target || target > t.lock_idx then
    invalid_arg "Txn_state.rollback_to: target out of range";
  if target >= 0 && not (well_defined t target) then
    invalid_arg "Txn_state.rollback_to: target state is not well-defined";
  let old_pc = t.pc in
  (* Lock states >= target are undone (all of them for a restart). *)
  let undone_from = max target 0 in
  let released = entities_from t undone_from in
  drop_shadows_from t undone_from;
  if target = restart_target then begin
    (* Full restart: locals are rebuilt from declared initials and the
       whole program, pre-lock prefix included, re-executes. *)
    Array.iter (recycle_stack t.pool) t.locals;
    fill_locals t 0 t.program.Program.locals;
    t.live_copies <- Array.length t.locals;
    t.lock_idx <- 0;
    t.pc <- 0
  end
  else begin
    Array.iter (counted_truncate t target) t.locals;
    for k = 0 to target - 1 do
      let h = t.ls_shadow.(k) in
      if h != no_history then counted_truncate t target h
    done;
    (* Execution resumes by re-issuing the lock request at state
       [target] (nothing to undo when it is the current lock state). *)
    if target < t.lock_idx then t.pc <- t.ls_pc.(target);
    t.lock_idx <- target
  end;
  t.rollbacks <- t.rollbacks + 1;
  t.ops_lost <- t.ops_lost + (old_pc - t.pc);
  released

(* Hand every remaining history back to the pool when the scheduler
   retires the transaction (after its accounting has been read), and drop
   the arrays that held them: a retired state keeps only its lock states'
   entity, mode and pc. The state must not be driven afterwards. *)
let dispose t =
  Array.iter (recycle_stack t.pool) t.locals;
  drop_shadows_from t 0;
  t.locals <- [||];
  t.ls_shadow <- [||];
  t.live_copies <- 0

let total_executed t = t.total_executed
let n_rollbacks t = t.rollbacks
let ops_lost t = t.ops_lost
let peak_copies t = max t.peak_copies (current_copies t)
let monitored_writes t = t.monitored_writes
let entry_order t = t.id

let pp ppf t =
  Fmt.pf ppf
    "@[<h>T%d[%s pc=%d lock_idx=%d %a locks={%a} copies=%d rollbacks=%d]@]"
    t.id t.program.Program.name t.pc t.lock_idx pp_phase t.phase
    Fmt.(list ~sep:(any ", ") (fun ppf (e, m, k) ->
             pf ppf "%s:%a@@%d" e Lock_mode.pp m k))
    (locks_held t) (current_copies t) t.rollbacks
