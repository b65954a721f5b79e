(** Execution histories and the conflict-serializability check —
    maintained {e streaming}, in bounded memory.

    Section 2 of the paper asserts that rollbacks "do not interfere with
    the serializability of the two-phase protocol"; this module is the
    oracle our property tests and the chaos harness use to hold the whole
    engine to that claim.

    We record, per transaction and entity, the interval during which the
    lock was held (shared intervals are reads, exclusive intervals are
    writes — the store-visible write happens at the unlock that installs
    the final local copy). Work undone by a rollback is {!discard}ed: a
    released entity was never observed by anyone (the local copy dies, the
    global value never changed), so it must leave no trace in the history.
    Serializability of the {e committed} transactions is then acyclicity
    of the precedence graph over conflicting intervals.

    Unlike the naive construction (the test suite's [History_naive]),
    precedence is kept online: a committing transaction's intervals are
    checked only against retained intervals on the {e same entity}, and
    each retained transaction counts its retained predecessors and lists
    its successors. Once one has no retained predecessor and lies
    entirely before the truncation watermark (the earliest grant tick any
    live transaction can still commit), it is {e folded} into the
    serial-order prefix, smallest id first, and its intervals are
    dropped, so retained state follows the active window, not the run
    length. The queries walk the retained residue. DESIGN.md §10 gives
    the argument that folding preserves the verdict exactly.

    Preconditions inherited from the engines: ticks passed to {!note_grant}
    and {!note_release} are non-decreasing over the lifetime of a history
    (both schedulers' clocks are monotone), and transaction ids are
    non-negative (they index a dense array). The truncation watermark —
    and therefore verdict equivalence with the naive construction — relies
    on the first. *)

type txn = int
type entity = Prb_storage.Store.entity
type mode = Prb_txn.Lock_mode.t

type interval = {
  txn : txn;
  entity : entity;
  mode : mode;
  granted_at : int;
  released_at : int;
}

type t

val create : Prb_storage.Store.t -> t
(** The store numbers the entities: the entry points below take its ids
    ({!Prb_storage.Store.id}), and reports name them through it. *)

val note_grant : t -> tick:int -> txn -> int -> mode -> unit
(** A lock was granted on the entity with this id. *)

val note_release : t -> tick:int -> txn -> int -> unit
(** The lock was released at unlock/commit time: closes the open
    interval. Ignored when no interval is open (shared locks released by a
    rollback are discarded instead). *)

val discard : t -> txn -> int -> unit
(** Partial rollback released this entity: erase the open interval. *)

val discard_txn : t -> txn -> unit
(** Total removal of a transaction: erase its open intervals and any
    closed-but-uncommitted ones, in O(own intervals) — live state is
    indexed per transaction, not scanned from a global table. *)

val commit_txn : t -> txn -> unit
(** Transaction finished; its closed intervals join the committed history:
    conflict edges against retained intervals on the same entities are
    added immediately, and any newly quiescent committed prefix is folded
    into the serial-order witness. O(own intervals x same-entity retained
    accessors). @raise Invalid_argument if it still has an open interval
    (checked in O(1) via the per-transaction open-interval index). *)

val committed : t -> interval list
(** {e Retained} committed intervals (those not yet folded into the
    witness prefix), sorted by grant tick then txn. Small histories whose
    transactions are still inside the active window see every committed
    interval here, matching the naive construction. *)

val overlapping_conflicts : t -> (interval * interval) list
(** Conflicting committed intervals that overlap in time — impossible
    under a correct lock manager; non-empty means the engine is broken.
    Each pair is reported once, smaller transaction id first, detected at
    the later commit; recorded violations survive folding. *)

val serializable : t -> bool
(** No overlapping conflicts and an acyclic precedence graph. Exactly the
    naive verdict: folding only removes transactions that can no longer
    lie on any cycle or overlap. *)

val equivalent_serial_order : t -> txn list option
(** A serial order witnessing serializability, when it holds: the folded
    prefix followed by a topological order of the retained transactions
    (depth-first from each id in ascending order, successors ascending,
    post-order reversed). Always a valid linearisation of the full (naive)
    precedence graph, though not necessarily the same witness the naive
    construction picks when several are valid. *)

val n_retained_intervals : t -> int
(** Committed intervals currently retained for conflict checking — the
    quantity prefix truncation keeps proportional to the active window. *)

val n_retained_txns : t -> int

val n_folded : t -> int
(** Committed transactions already folded into the witness prefix. *)

val pool_sizes : t -> int * int * int
(** Transaction slots, interval cells and successor cells ever allocated.
    Folding recycles all three, so they follow the active window, not the
    run length. *)
