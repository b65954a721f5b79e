(** The lock manager: shared/exclusive locks over entities with FIFO wait
    queues.

    Two grant disciplines are provided:

    - {b Fair} (default): a request is granted iff it is compatible with
      every current holder {e and} every request queued ahead of it; on
      release, the queue is drained strictly in FIFO order (stopping at
      the first waiter that still conflicts). Blocked requests wait both
      for conflicting holders and for conflicting requests ahead of them
      in the queue, and the waits-for edges reported by {!blockers}
      include both.
    - {b Availability} ([~fair:false]): the paper's Section 2 rule — a
      request is granted iff the entity is "available", i.e. compatible
      with the current holders, and waiters wait for holders only. This
      admits writer starvation (a stream of shared locks can hold off an
      exclusive request forever), which combined with partial rollback
      produces live-lock: a victim releases its shared lock and
      immediately re-acquires it past the starving writer. DESIGN.md
      discusses the deviation; the two disciplines coincide on
      exclusive-only workloads, which is what the paper's Section 3.1
      figures use.

    A transaction holds each entity in exactly one mode: a second request
    for a held entity, in either mode, is rejected. {!Prb_txn.Program.validate}
    already rejects a re-lock, so no run converts a lock.

    Entities are named by their {!Prb_storage.Store.id}: the engine
    resolves each lock state's name once at admission, and every entry
    point here takes or returns that id. *)

type txn = int
type entity = int
(** A {!Prb_storage.Store.id}. *)

type mode = Prb_txn.Lock_mode.t

type t

val create : ?fair:bool -> Prb_storage.Store.t -> t
(** [fair] defaults to [true]. The store numbers the entities; the table
    reads it only for names, to order {!held_by}. *)

val is_fair : t -> bool

type outcome =
  | Granted
  | Blocked of txn list
      (** the transactions the requester now waits for: conflicting
          holders, plus conflicting queued-ahead requesters under the fair
          discipline (sorted, non-empty, never includes the requester) *)

val request : t -> txn -> mode -> entity -> outcome
(** @raise Invalid_argument when the transaction already holds the entity
    (in any mode), when it is already waiting for something (a
    transaction blocks on one request at a time), or on a negative id. *)

val release : t -> txn -> entity -> (txn * mode) list
(** Release a held lock; returns the waiters granted as a consequence, in
    grant order. @raise Invalid_argument if not held. *)

val cancel_wait : t -> txn -> (entity * (txn * mode) list) option
(** Forget the transaction's pending request (used when a waiter is
    chosen as deadlock victim): returns the entity it was queued on and
    any waiters granted because the queue shrank. [None] if it was not
    waiting. *)

val holders : t -> entity -> (txn * mode) list
(** Sorted by transaction id. *)

val waiters : t -> entity -> (txn * mode) list
(** FIFO order. *)

val has_waiters : t -> entity -> bool
(** O(1): does the entity have a non-empty wait queue? Lets release paths
    skip the waiter re-pointing pass for uncontended entities. *)

val held_by : t -> txn -> (entity * mode) list
(** Sorted by entity name, not by id. O(locks held) before the sort:
    served from a per-transaction index, not a scan over every entry in
    the table. *)

val n_held : t -> txn -> int
(** O(1): how many locks the transaction holds. *)

val holds : t -> txn -> entity -> mode option
(** O(1) via the per-transaction index. *)

val waiting_for : t -> txn -> (entity * mode) option
(** The transaction's pending request, if blocked. *)

val blockers : t -> txn -> txn list
(** Whom the transaction's pending request currently waits for (see
    {!outcome}); [[]] when it is not waiting. Recompute after every
    release or cancellation: holder sets and queues evolve while a waiter
    sleeps. *)

(** Conflict taxonomy of Section 3.2 (holder conflicts only). *)
type conflict_kind =
  | No_conflict
  | Type1  (** shared request vs. exclusive holder *)
  | Type2  (** exclusive request vs. any holder(s) *)

val classify : t -> txn -> mode -> entity -> conflict_kind

(* Counters for the experiment harness. *)

val n_requests : t -> int
val n_blocks : t -> int

val n_upgrades : t -> int
(** Always 0: no lock is ever converted. Kept only because the repository
    benchmark ([benchmark/loop.ml]) reads it. *)

val n_entries : t -> int
(** Live entries in the table. Entries are dropped as soon as both their
    holder set and queue drain, so this tracks currently held-or-contended
    entities, not every entity ever locked. *)
