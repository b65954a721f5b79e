(** The runtime of one executing transaction.

    A [Txn_state.t] holds everything the concurrency control needs to run,
    suspend, partially roll back and resume one transaction: the program
    counter, the lock records (one per lock state, in the paper's
    one-to-one correspondence with locked entities), the per-object version
    histories dictated by the rollback {!Strategy}, and the space/progress
    accounting the experiments report.

    The scheduler drives it through {!next_action} / {!lock_granted} /
    {!exec_data_op} / {!perform_unlock} / {!commit}; deadlock resolution
    uses {!rollback_target} / {!cost_to_release} / {!rollback_to}.

    Writes never touch the global store: exclusively locked entities are
    shadowed by a local history whose final value the scheduler installs
    at unlock or commit (paper Section 4's local-copy model), so rollback
    is purely local. *)

type t

type entity = Prb_storage.Store.entity
type var = Prb_txn.Expr.var

val create :
  ?copy_allocation:(string -> int) ->
  ?pool:History_stack.Pool.t ->
  strategy:Strategy.t ->
  id:int ->
  store:Prb_storage.Store.t ->
  Prb_txn.Program.t ->
  t
(** [copy_allocation] grants extra retained versions to individual
    objects on top of the strategy's uniform budget (keys are
    {!Prb_txn.Program.write_profile}'s ["G:entity"] / ["L:local"];
    default none; ignored under [Mcs]'s unbounded budget) — the
    non-uniform storage allocation of the paper's closing question,
    computed by {!Allocation}. [pool] recycles history-stack buffers
    across histories and transactions (see {!History_stack.Pool});
    schedulers share one pool across every transaction they run.
    Resolves each lock state's entity to its {!Prb_storage.Store.id}, one
    lookup per lock op; the ids stay in the state, never in the program.
    @raise Invalid_argument when the program fails
    {!Prb_txn.Program.validate}, which reads the verdict [Program.make]
    recorded. *)

val dispose : t -> unit
(** Return every remaining history buffer to the creation [pool] (no-op
    without one) and drop the arrays that held them. Call at commit, after
    the accounting has been read; the state must not be driven afterwards.
    The engines then drop the state itself and answer for the id with
    {!committed}, which rebuilds exactly what a disposed state reports. *)

val committed :
  strategy:Strategy.t ->
  id:int ->
  store:Prb_storage.Store.t ->
  total_executed:int ->
  n_rollbacks:int ->
  peak_copies:int ->
  monitored_writes:int ->
  Prb_txn.Program.t ->
  t
(** The state of a committed, disposed transaction, rebuilt from its
    program and its accounting: every lock state held (the program's lock
    ops in order), pc at the program's end, no copies, and {!ops_lost}
    equal to [total_executed] minus the program's length. Every accessor
    answers as it did on the disposed original; the state must not be
    driven. *)

val id : t -> int
val program : t -> Prb_txn.Program.t
val strategy : t -> Strategy.t

type phase =
  | Growing  (** still issuing lock requests; may be rolled back *)
  | Shrinking  (** has unlocked; immune to rollback (paper Section 2) *)
  | Committed

val phase : t -> phase
val pp_phase : Format.formatter -> phase -> unit

val pc : t -> int
(** Program counter = state index at quiescent points: the paper's
    rollback cost [S_l - S_m] is a difference of these. *)

val lock_index : t -> int
(** Number of lock requests granted so far = the current lock state. *)

val finished : t -> bool

(** What the scheduler must do to advance this transaction one step. *)
type action =
  | Need_lock of Prb_txn.Lock_mode.t
      (** a lock request in this mode on {!next_lock_id} *)
  | Need_unlock  (** an [Unlock]; run it with {!perform_unlock} *)
  | Data_step  (** a Read/Write/Assign; run it with {!exec_data_op} *)
  | At_end  (** program exhausted; {!commit} it *)

val next_action : t -> action
(** Allocates nothing. *)

val next_lock_id : t -> int
(** The store id of the entity a pending [Need_lock] names: lock state
    {!lock_index}'s, resolved at admission. Only for a live state. *)

val lock_granted : t -> unit
(** The pending [Need_lock] was granted: record lock state [lock_index]
    (entity, mode, pc), shadow the entity with a history when exclusive,
    advance. @raise Invalid_argument if the current op is not a [Lock]. *)

val exec_data_op : t -> unit
(** Execute the [Read]/[Write]/[Assign] at [pc].
    @raise Invalid_argument on a lock-discipline op. *)

val perform_unlock : t -> int * Prb_storage.Value.t option
(** Execute the [Unlock] at [pc]: leave the growing phase, drop the
    entity's shadow and return the entity's store id with the final value
    the scheduler must install (None for shared locks). The scheduler
    releases the lock itself. *)

val commit : t -> (int * Prb_storage.Value.t) list
(** Terminate at end of program: returns the final values of entities
    still held exclusively, by store id in entity-name order, for
    installation; the scheduler releases all remaining locks. Marks the
    transaction [Committed]. *)

(* Locks and views *)

val locks_held : t -> (entity * Prb_txn.Lock_mode.t * int) list
(** (entity, mode, lock state that acquired it), ascending by lock
    state. *)

val holds : t -> entity -> Prb_txn.Lock_mode.t option
val lock_state_of : t -> entity -> int option

val read_view : t -> entity -> Prb_storage.Value.t
(** The value the transaction currently sees for a held entity: its shadow
    copy when exclusive, the global value when shared.
    @raise Not_found if not held. *)

val local_value : t -> var -> Prb_storage.Value.t
(** Current value of a local variable. @raise Not_found if undeclared. *)

(* Rollback *)

val restart_target : int
(** The pseudo-target [-1]: a full restart (reset to pc 0, declared
    initial locals, re-execute everything). Always available; the
    remove-and-restart of [7,10]. Distinct from lock state 0, which keeps
    the pre-lock local computation — the distinction that makes Figure 1's
    costs (current state index − lock state index) come out exactly. *)

val well_defined : t -> int -> bool
(** Is lock state [q] (0 <= q <= lock_index) restorable for every live
    object under the current histories? (Under [Mcs] every state is;
    under a bounded budget, overwritten segments are not.) *)

val well_defined_states : t -> int list

val rollback_target : t -> entity -> int
(** The target the strategy would roll to in order to release the entity:
    {!restart_target} for [Total]; the entity's lock state for [Mcs]; the
    nearest well-defined state at or below it — falling back to
    {!restart_target} — for [Sdg]/[Sdg_k].
    @raise Invalid_argument if the entity is not held. *)

val rollback_target_all : t -> entity list -> int
(** The latest target releasing every entity of the list: the minimum of
    their {!rollback_target}s ({!lock_index} for the empty list), found
    with one pass over the list and one downward scan of the histories.
    @raise Invalid_argument if some entity is not held. *)

val cost_of_target : t -> int -> int
(** Progress lost by rolling to a target: [pc - pc_at_that_state] ([pc]
    itself for {!restart_target}). *)

val cost_to_release : t -> entity -> int
(** [cost_of_target t (rollback_target t entity)]. *)

val rollback_to : t -> int -> int list
(** Perform the rollback of Section 2: restore locals and surviving
    shadows to their values at the target lock state (or restart, for
    {!restart_target}), discard newer history, reset [pc], and return the
    store ids of the entities whose locks the scheduler must now release
    (those acquired at lock states [>= target]), newest first.
    @raise Invalid_argument when not [Growing], when the target exceeds
    the current lock state, or when a non-restart target is not
    well-defined. *)

(* Accounting *)

val total_executed : t -> int
(** Operations executed including re-execution after rollbacks — the
    "work" metric; [pc] is net progress. *)

val n_rollbacks : t -> int
val ops_lost : t -> int
(** Cumulative progress destroyed by rollbacks (Σ of pc drops). *)

val current_copies : t -> int
(** Local copies currently charged to this transaction (Theorem 3
    accounting): Σ over shadowed objects of retained versions + 1. *)

val peak_copies : t -> int

val monitored_writes : t -> int
(** Writes executed while a rollback could still occur (before the last
    lock request was granted) — the monitoring overhead a three-phase
    structure eliminates (paper Section 5). *)

val entry_order : t -> int
(** Tie-break identity for Theorem 2's partial order; equals {!id} (ids
    are assigned in admission order by the scheduler). *)

val pp : Format.formatter -> t -> unit
