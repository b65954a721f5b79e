(** Per-object version history — the unified mechanism behind all four
    rollback strategies.

    One history tracks one object: a global entity the transaction holds
    exclusively, or one of its local variables. It records the values the
    object assumed, keyed by the lock segment ([lock index]) of the write
    that produced them, exactly like the stacks of the paper's multi-lock
    copy strategy (Section 4). A {e retention budget} bounds how many
    versions are kept; when a push would exceed it, the oldest non-live
    version is evicted and the lock states it covered become {e damaged} —
    non-restorable — which is precisely the information the paper encodes
    in the state-dependency graph.

    Conventions (DESIGN.md Section 4): lock state [L_q] is the state just
    before the q-th lock request; an operation's lock index is the number
    of lock requests before it, so a version written at lock index [w]
    covers [L_q] for [q >= w] until the next version supersedes it. The
    [initial] value (the entity's global value at lock time, or a local's
    value at history creation) covers every state before the first write
    and is never evicted — the database itself stores it, so it costs no
    extra copy. *)

type t

val create :
  budget:int -> created_at:int -> initial:Prb_storage.Value.t -> t
(** [budget >= 1] is the maximum number of retained versions (the live
    copy counts); [created_at] is the lock index at history creation (the
    entity's lock request index, or 0 for locals).
    @raise Invalid_argument if [budget < 1]. *)

val created_at : t -> int

val current : t -> Prb_storage.Value.t
(** The live local copy: the newest version, or the initial value when the
    object was never written. *)

val write : t -> lock_index:int -> Prb_storage.Value.t -> unit
(** Record a write performed in the given lock segment. Two writes in the
    same segment coalesce (only the segment's final value can be seen by
    any lock state). May evict under budget pressure, extending the damage
    set. @raise Invalid_argument if [lock_index] decreases. *)

val n_versions : t -> int
(** Currently retained versions (0 when never written). *)

val n_copies : t -> int
(** Local copies charged to this object in the paper's space accounting:
    retained versions plus one for the saved initial. *)

val peak_copies : t -> int
(** High-water mark of {!n_copies}. *)

val damaged : t -> (int * int) list
(** Damaged lock-state intervals [[lo, hi)], disjoint, ascending, merged:
    [L_q] with [lo <= q < hi] cannot be restored for this object. Empty
    under an [Mcs]-sized budget. *)

val is_restorable : t -> int -> bool
(** Can this object's value at [L_q] be reproduced? False iff [q] lies in
    a damaged interval. *)

val value_at : t -> int -> Prb_storage.Value.t option
(** The object's value at lock state [L_q]; [None] when damaged. *)

val truncate : t -> int -> unit
(** Roll the history back to lock state [q]: discard versions written at
    lock index [> q] and damage intervals lying beyond [q]. The caller
    guarantees [q] is restorable (checked: @raise Invalid_argument
    otherwise). After truncation {!current} equals the value at [L_q]. *)

val pp : Format.formatter -> t -> unit

(** Recycler for history buffers. Histories are created and dropped at
    lock-grant/release frequency; routing them through a pool lets the
    backing arrays be reused instead of re-allocated, which is where the
    arena-backed representation wins its allocation budget. An acquired
    stack is indistinguishable from a freshly created one (recycling
    clears all previous state, including value references). *)
module Pool : sig
  type stack := t
  type t

  val create : unit -> t

  val acquire :
    t -> budget:int -> created_at:int -> initial:Prb_storage.Value.t -> stack
  (** A stack observationally equal to
      [create ~budget ~created_at ~initial], reusing a released stack's
      buffers when one is available.
      @raise Invalid_argument if [budget < 1]. *)

  val release : t -> stack -> unit
  (** Return a stack to the pool. The caller must not use it afterwards. *)
end
