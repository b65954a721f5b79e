(** Reference implementation of {!Prb_wfg.Waits_for} (the original
    Digraph-backed representation), retained for differential testing
    only.

    The labelled concurrency graph G(T) of Section 3.

    The paper draws an arc [<T_j, T_i>] labelled [A] when [T_i] waits to
    lock entity [A] held by [T_j]. We store the transposed, conventional
    waits-for orientation — an edge [waiter -> holder] — which has the same
    cycles; Theorem 1's "forest" shape appears here as: every vertex has
    out-degree at most one (a transaction waits for at most one exclusive
    holder) and no cycle exists.

    Invariant maintained by the scheduler: a transaction has out-edges iff
    it is blocked, and all its out-edges carry the single entity it is
    waiting for. *)

type txn = int
type entity = Prb_storage.Store.entity

type t

val create : unit -> t

val add_txn : t -> txn -> unit
(** Register a transaction vertex (idempotent). *)

val remove_txn : t -> txn -> unit
(** Drop a vertex and all incident edges (commit/total removal). *)

val set_wait : t -> waiter:txn -> holders:txn list -> entity -> unit
(** Replace the waiter's out-edges: it now waits for each holder, on the
    given entity. @raise Invalid_argument if [holders] contains the
    waiter. *)

val clear_wait : t -> txn -> unit
(** The waiter is no longer blocked (granted or rolled back). *)

val waits : t -> txn -> (txn * entity) list
(** Current out-edges of a transaction, sorted by holder id. *)

val waiting_on : t -> txn -> (txn * entity) list
(** In-edges: who waits for this transaction, sorted by waiter id. *)

val is_blocked : t -> txn -> bool

val txns : t -> txn list
val edges : t -> (txn * txn * entity) list
(** (waiter, holder, entity), lexicographic. *)

val would_deadlock : t -> waiter:txn -> holders:txn list -> bool
(** Would blocking [waiter] on [holders] close a cycle? True iff some
    holder already reaches the waiter — the descendant check of
    Section 3.1 (on the transposed orientation). The graph is not
    modified. One multi-source early-exit DFS over all holders (shared
    visited set), not a full reachability pass per holder. *)

val on_cycle_from : t -> txn list -> txn list
(** Transactions lying on some waits-for cycle reachable from the seeds,
    ascending. Sound as a full cycle census whenever every cycle is known
    to pass through a seed — the scheduler seeds it with the transactions
    whose wait edges changed since the graph was last acyclic. *)

val cycles_through : ?limit:int -> t -> txn -> txn list list
(** All simple cycles containing the transaction, each starting at it —
    after a deadlock has materialised (edges installed), these are the
    cycles the victim choice must break. *)

val is_exclusive_forest : t -> bool
(** Theorem 1 shape check for exclusive-only systems: out-degree <= 1
    everywhere and acyclic. *)

val pp : Format.formatter -> t -> unit
(** Renders edges as ["T2 -b-> T3"] lines, matching the paper's figures. *)
