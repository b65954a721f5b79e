(** Transaction programs: straight-line sequences of lock, unlock, read,
    write and local-assignment operations (the paper's Section 2 model).

    A program is pure data. Executing it is the scheduler's job
    ({!Prb_core}); re-executing a suffix after a partial rollback is
    guaranteed to reproduce the same states because every computation is an
    {!Expr.t} over locals.

    Terminology used throughout the library (DESIGN.md Section 4):
    the {b lock index} of an operation is the number of [Lock] operations
    strictly before it; {b lock state} [L_i] is the transaction state
    immediately before its i-th lock request; a program with [n] locks has
    lock states [L_0 .. L_n] where rolling back to [L_0] is a total
    restart. Operations with lock index [i] form {b segment} [i]. *)

type entity = Prb_storage.Store.entity
type var = Expr.var

type op =
  | Lock of Lock_mode.t * entity  (** the paper's LS / LX requests *)
  | Unlock of entity  (** two-phase: no Lock may follow *)
  | Read of entity * var  (** [var := local view of entity] *)
  | Write of entity * Expr.t  (** update the transaction-local copy *)
  | Assign of var * Expr.t  (** local computation *)

type t = private {
  name : string;
  locals : (var * Prb_storage.Value.t) list;  (** declared initial values *)
  ops : op array;
  valid : bool;
      (** {!validate}'s verdict, decided once when the program is built *)
}

val make :
  name:string -> locals:(var * Prb_storage.Value.t) list -> op list -> t
(** Build a program. @raise Invalid_argument on duplicate local names. Does
    {e not} validate locking discipline — use {!validate} so callers can
    report all violations at once. The verdict alone is recorded in
    [valid], in one allocation-free pass. *)

(** Locking-discipline violations detected by {!validate}; each is paired
    with the offending operation's index. *)
type violation =
  | Lock_after_unlock  (** breaks the two-phase rule *)
  | Already_locked of entity  (** re-lock (incl. upgrade) of a held entity *)
  | Unlock_not_held of entity
  | Read_without_lock of entity
  | Write_without_exclusive of entity
  | Undeclared_variable of var

val pp_violation : Format.formatter -> violation -> unit

val validate : t -> (unit, (int * violation) list) result
(** Check the locking discipline. A valid program may omit trailing
    unlocks; the system releases remaining locks at termination (paper
    Section 1). Reads [valid], so it scans nothing for a valid program, and
    builds the violation list only for an invalid one. *)

(* Analysis *)

val length : t -> int
val n_locks : t -> int
(** Number of [Lock] operations = number of non-initial lock states. *)

val lock_index_of_op : t -> int -> int
(** Lock index (segment) of the operation at a position. *)

val lock_op_position : t -> int -> int
(** [lock_op_position t k] is the position of the k-th (0-based) [Lock].
    @raise Invalid_argument if [k >= n_locks t]. *)

val lock_at : t -> int -> Lock_mode.t * entity
(** Mode and entity of the k-th [Lock]. *)

val lock_state_of_entity : t -> entity -> int option
(** [Some k] when the program's k-th lock request is for this entity —
    rolling back to lock state [k] is exactly what releases it. *)

val last_lock_position : t -> int option

val is_three_phase : t -> bool
(** True when every [Write] has lock index [n_locks] (i.e. runs after the
    final lock request) — the paper's acquire/update/release structure that
    makes a transaction immune to rollback once its last lock is granted. *)

val write_profile : t -> (string * int list) list
(** For every written object — globals keyed ["G:name"], locals ["L:name"]
    — the lock indices (segments) of its writes in program order. [Read]
    counts as a write to its target local (it destroys the previous
    value). The damage a single-copy rollback implementation suffers is
    governed by the span from each object's first to last write
    (DESIGN.md Section 4). *)

val damage_span : t -> int
(** Sum over written objects of (last write segment − first write
    segment): 0 for perfectly clustered writes; the count of lock states
    made non-restorable, with multiplicity, otherwise. *)

(* Structure transforms (Section 5 of the paper) *)

val cluster_writes : t -> t
(** Semantics-preserving reordering that bubbles every non-first write of
    an object towards that object's previous write, past independent
    operations (two adjacent operations commute when their read/write
    object sets are disjoint; locks and unlocks keep their relative order
    and an operation never crosses the lock of an entity it touches).
    Same-entity writes pile up together, which is exactly the paper's
    Figure 5 restructuring; [damage_span] never increases. *)

val make_three_phase : t -> t
(** Best-effort dual transform: bubble writes {e later} until they sit
    after the last lock request. Check the result with {!is_three_phase} —
    data dependencies can make full three-phase structure unreachable. *)

val hoist_locks : t -> t
(** Bubble every lock request as early as possible (past data operations
    that do not touch its entity; locks keep their relative order). The
    acquisition phase of the paper's acquire/update/release structure:
    the transaction reaches its last lock request — after which it can
    declare itself immune to rollback — as soon as its data dependences
    allow, at the price of holding locks longer. Semantics-preserving. *)

val make_acquire_update_release : t -> t
(** [hoist_locks] followed by {!make_three_phase}: best-effort full
    three-phase restructuring. *)

(* Pretty-printing *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Structural equality (name included). *)

(* Convenience constructors for hand-written programs and tests. *)

val lock_x : entity -> op
val lock_s : entity -> op
val unlock : entity -> op
val read : entity -> var -> op
val write : entity -> Expr.t -> op
val assign : var -> Expr.t -> op
