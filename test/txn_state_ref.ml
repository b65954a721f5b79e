(* Reference implementation of [Txn_state], retained verbatim from the
   hashtable-and-record-list version so the qcheck differential property
   in test_rollback can assert the dense per-lock-state rewrite is
   observationally identical. Not used by any engine. *)

module History_stack = Prb_rollback.History_stack
module Strategy = Prb_rollback.Strategy
module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Entity = Prb_storage.Store.Entity
module Util = Prb_util.Util
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Lock_mode = Prb_txn.Lock_mode

type entity = Store.entity
type var = Expr.var

type phase = Growing | Shrinking | Committed

type lock_record = {
  lr_entity : entity;
  lr_mode : Lock_mode.t;
  lr_pc : int; (* position of the lock op = state index at this lock state *)
}

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
  env_fun : var -> Value.t; (* one closure over [locals] for Expr.eval *)
  mutable pc : int;
  mutable lock_idx : int;
  mutable phase : phase;
  locals : (var, History_stack.t) Hashtbl.t;
  shadows : (entity, History_stack.t) Hashtbl.t; (* X-held entities *)
  mutable records : lock_record list; (* newest first; length = lock_idx *)
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

let create ?copy_allocation ?pool ~strategy ~id ~store program =
  (match Program.validate program with
  | Ok () -> ()
  | Error ((i, v) :: _) ->
      invalid_arg
        (Fmt.str "Txn_state.create: invalid program %s: op %d: %a"
           program.Program.name i Program.pp_violation v)
  | Error [] -> assert false);
  let budget = Strategy.version_budget strategy in
  let locals = Hashtbl.create 8 in
  List.iter
    (fun (v, init) ->
      Hashtbl.replace locals v
        (acquire_stack pool
           ~budget:(object_budget budget copy_allocation "L:" v)
           ~created_at:0 ~initial:init))
    program.Program.locals;
  let env_fun v =
    match Hashtbl.find_opt locals v with
    | Some h -> History_stack.current h
    | None -> raise Not_found
  in
  {
    id;
    program;
    strategy;
    store;
    budget;
    copy_alloc = copy_allocation;
    pool;
    n_locks = Program.n_locks program;
    env_fun;
    pc = 0;
    lock_idx = 0;
    phase = Growing;
    locals;
    shadows = Hashtbl.create 8;
    records = [];
    total_executed = 0;
    rollbacks = 0;
    ops_lost = 0;
    monitored_writes = 0;
    peak_copies = 0;
    live_copies = List.length program.Program.locals;
  }

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

let all_histories t =
  List.map snd (Util.sorted_bindings String.compare t.locals)
  @ List.map snd (Util.sorted_bindings Entity.compare t.shadows)

let current_copies t = t.live_copies

let note_copies t =
  if t.live_copies > t.peak_copies then t.peak_copies <- t.live_copies

let[@lint.allow
     "A1: a grant appends the lock record and, for exclusives, acquires \
      the pooled shadow stack — the retained-copy machinery the paper \
      charges per lock, not incidental allocation"] lock_granted t =
  (if finished t then
     invalid_arg "Txn_state.lock_granted: current op is not a lock request"
   else
     match t.program.Program.ops.(t.pc) with
     | Program.Lock (mode, e) ->
         t.records <-
           { lr_entity = e; lr_mode = mode; lr_pc = t.pc } :: t.records;
         if Lock_mode.equal mode Lock_mode.Exclusive then begin
           let budget = object_budget t.budget t.copy_alloc "G:" e in
           (match Hashtbl.find_opt t.shadows e with
           | Some old ->
               t.live_copies <- t.live_copies - History_stack.n_copies old;
               recycle_stack t.pool old
           | None -> ());
           Hashtbl.replace t.shadows e
             (acquire_stack t.pool ~budget ~created_at:t.lock_idx
                ~initial:(Store.get t.store e));
           t.live_copies <- t.live_copies + 1
         end;
         t.lock_idx <- t.lock_idx + 1;
         t.pc <- t.pc + 1;
         t.total_executed <- t.total_executed + 1
     | Program.Unlock _ | Program.Read _ | Program.Write _ | Program.Assign _
       ->
         invalid_arg "Txn_state.lock_granted: current op is not a lock request");
  note_copies t

let local_history t v =
  match Hashtbl.find_opt t.locals v with
  | Some h -> h
  | None -> raise Not_found

let local_value t v = History_stack.current (local_history t v)

let holds_record t e =
  List.find_opt (fun r -> String.equal r.lr_entity e) t.records

let holds t e = Option.map (fun r -> r.lr_mode) (holds_record t e)

let read_view t e =
  match Hashtbl.find_opt t.shadows e with
  | Some h -> History_stack.current h
  | None -> (
      match holds t e with
      | Some Lock_mode.Shared -> Store.get t.store e
      | Some Lock_mode.Exclusive -> assert false (* shadow must exist *)
      | None -> raise Not_found)

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
  match Hashtbl.find_opt t.shadows e with
  | Some h ->
      counted_write t h value;
      if t.lock_idx < t.n_locks then
        t.monitored_writes <- t.monitored_writes + 1
  | None -> invalid_arg "Txn_state: write to entity without exclusive shadow"

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
        let final =
          match Hashtbl.find_opt t.shadows e with
          | Some h ->
              Hashtbl.remove t.shadows e;
              t.live_copies <- t.live_copies - History_stack.n_copies h;
              let v = History_stack.current h in
              recycle_stack t.pool h;
              Some v
          | None -> None
        in
        t.phase <- Shrinking;
        t.pc <- t.pc + 1;
        t.total_executed <- t.total_executed + 1;
        (e, final)
    | Program.Lock _ | Program.Read _ | Program.Write _ | Program.Assign _ ->
        fail ()

let commit t =
  if not (finished t) then invalid_arg "Txn_state.commit: program not finished";
  let bindings = Util.sorted_bindings Entity.compare t.shadows in
  let finals = List.map (fun (e, h) -> (e, History_stack.current h)) bindings in
  List.iter
    (fun (_, h) ->
      t.live_copies <- t.live_copies - History_stack.n_copies h;
      recycle_stack t.pool h)
    bindings;
  Hashtbl.reset t.shadows;
  t.phase <- Committed;
  finals

let locks_held t =
  List.mapi (fun k r -> (r.lr_entity, r.lr_mode, k)) (List.rev t.records)

let lock_state_of t e =
  let rec scan k = function
    | [] -> None
    | r :: rest ->
        if String.equal r.lr_entity e then Some k else scan (k - 1) rest
  in
  scan (t.lock_idx - 1) t.records

(* Restorability sweeps probe many lock states against the same set of
   histories; [all_histories] (a sort of every binding) is hoisted out of
   the per-state loop. *)
let restorable_all hists q =
  List.for_all (fun h -> History_stack.is_restorable h q) hists

let well_defined t q =
  if q < 0 || q > t.lock_idx then false
  else restorable_all (all_histories t) q

let well_defined_states t =
  let hists = all_histories t in
  List.filter (restorable_all hists) (List.init (t.lock_idx + 1) Fun.id)

(* The pseudo-target [restart_target] (-1) is a full restart: reset to
   pc 0 with declared initial locals and re-execute everything, the
   remove-and-restart of [7,10]. It needs no stored copies and is always
   available. Lock state 0 is distinct: it keeps the pre-lock local
   computation (cost counted from the first lock request, matching
   Figure 1's state-index arithmetic). *)
let restart_target = -1

(* The nearest restorable state at or below a lock state never decreases
   as the state grows, so the latest target releasing every entity of a
   set is the target of its lowest lock state: one history sort and one
   downward scan, however many entities. *)
let rollback_target_all t es =
  let lowest =
    List.fold_left
      (fun acc e ->
        match lock_state_of t e with
        | Some k -> if k < acc then k else acc
        | None -> invalid_arg "Txn_state.rollback_target: entity not held")
      t.lock_idx es
  in
  match (es, t.strategy) with
  | [], _ -> lowest
  | _ :: _, Strategy.Total -> restart_target
  | _ :: _, Strategy.Mcs -> lowest
  | _ :: _, (Strategy.Sdg | Strategy.Sdg_k _) ->
      let hists = all_histories t in
      let rec best q =
        if q < 0 then restart_target
        else if restorable_all hists q then q
        else best (q - 1)
      in
      best lowest

let rollback_target t e = rollback_target_all t [ e ]

(* State index at a rollback target: the position of the q-th lock
   request ([records] is newest-first, so offset [lock_idx - 1 - q]), or
   0 for the restart pseudo-target, whose cost is the whole progress. *)
let pc_at_lock_state t q =
  if q = restart_target then 0
  else (List.nth t.records (t.lock_idx - 1 - q)).lr_pc

let cost_of_target t q = t.pc - pc_at_lock_state t q

let cost_to_release t e = cost_of_target t (rollback_target t e)

let reset_locals t =
  Util.iter_sorted String.compare
    (fun _ h -> recycle_stack t.pool h)
    t.locals;
  Hashtbl.reset t.locals;
  List.iter
    (fun (v, init) ->
      let budget = object_budget t.budget t.copy_alloc "L:" v in
      Hashtbl.replace t.locals v
        (acquire_stack t.pool ~budget ~created_at:0 ~initial:init))
    t.program.Program.locals

let rollback_to t target =
  if t.phase <> Growing then
    invalid_arg "Txn_state.rollback_to: transaction is not in growing phase";
  if target < restart_target || target > t.lock_idx then
    invalid_arg "Txn_state.rollback_to: target out of range";
  if target >= 0 && not (well_defined t target) then
    invalid_arg "Txn_state.rollback_to: target state is not well-defined";
  let old_pc = t.pc in
  let released = List.map (fun r -> r.lr_entity) t.records in
  let released =
    if target = restart_target then begin
      (* Full restart: locals are rebuilt from declared initials and the
         whole program, pre-lock prefix included, re-executes. *)
      reset_locals t;
      Util.iter_sorted Entity.compare
        (fun _ h -> recycle_stack t.pool h)
        t.shadows;
      Hashtbl.reset t.shadows;
      t.live_copies <- List.length t.program.Program.locals;
      t.records <- [];
      t.lock_idx <- 0;
      t.pc <- 0;
      released
    end
    else begin
      (* Lock records for lock states >= target are undone. [records] is
         newest-first: the first [lock_idx - target] entries. *)
      let n_undone = t.lock_idx - target in
      let rec split acc k records =
        if k = 0 then (List.rev acc, records)
        else
          match records with
          | [] -> assert false
          | r :: rest -> split (r :: acc) (k - 1) rest
      in
      let undone, kept = split [] n_undone t.records in
      List.iter
        (fun r ->
          match Hashtbl.find_opt t.shadows r.lr_entity with
          | Some h ->
              t.live_copies <- t.live_copies - History_stack.n_copies h;
              Hashtbl.remove t.shadows r.lr_entity;
              recycle_stack t.pool h
          | None -> ())
        undone;
      let counted_truncate _ h =
        let before = History_stack.n_copies h in
        History_stack.truncate h target;
        t.live_copies <- t.live_copies + History_stack.n_copies h - before
      in
      Util.iter_sorted String.compare counted_truncate t.locals;
      Util.iter_sorted Entity.compare counted_truncate t.shadows;
      t.records <- kept;
      t.lock_idx <- target;
      (* The oldest undone record is the lock request at state [target]:
         execution resumes by re-issuing that request. *)
      (match undone with
      | [] -> () (* target = current lock state: nothing to undo *)
      | _ -> t.pc <- (List.nth undone (n_undone - 1)).lr_pc);
      List.map (fun r -> r.lr_entity) undone
    end
  in
  t.rollbacks <- t.rollbacks + 1;
  t.ops_lost <- t.ops_lost + (old_pc - t.pc);
  released

(* Hand every remaining history back to the pool when the scheduler
   retires the transaction (after its accounting has been read). The
   state must not be driven afterwards. *)
let dispose t =
  Util.iter_sorted String.compare
    (fun _ h -> recycle_stack t.pool h)
    t.locals;
  Util.iter_sorted Entity.compare
    (fun _ h -> recycle_stack t.pool h)
    t.shadows;
  Hashtbl.reset t.locals;
  Hashtbl.reset t.shadows;
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
