(** The labelled concurrency graph G(T) of Section 3.

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
    given entity, and record the waiter as changed. @raise
    Invalid_argument if [holders] contains the waiter. *)

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

val would_deadlock :
  ?label_ok:(entity -> bool) -> t -> waiter:txn -> holders:txn list -> bool
(** Would blocking [waiter] on [holders] close a cycle? True iff some
    holder already reaches the waiter — the descendant check of
    Section 3.1 (on the transposed orientation). The graph is not
    modified. A waiter with no in-edge answers [false] at once;
    otherwise one multi-source early-exit DFS over all holders (shared
    visited set), not a full reachability pass per holder.

    With [label_ok], the search goes on only through transactions that
    wait and whose wait label passes it, so the answer is true iff some
    cycle through the waiter has every arc after the waiter's own
    labelled by an entity that passes (the filter is never asked about
    the waiter's label). The filter runs once per transaction the search
    reaches, never on a transaction with no out-edge — whose label is
    stale — and is the caller's to keep allocation-free. *)

val on_cycle_from : t -> txn list -> txn list
(** Transactions lying on some waits-for cycle reachable from the seeds,
    ascending, whatever the seeds' order. Seeded with {!changed}, it is a
    full cycle census. *)

(** {2 Changed waiters}

    Every cycle formed since the graph was last acyclic contains an edge
    installed since, so it passes through a waiter {!set_wait} recorded
    since. A resolution fixpoint seeds its census there and calls
    {!settle} once the census is empty. *)

val changed : t -> txn list
(** The waiters recorded since the last {!settle} that are still blocked,
    each once. Allocates nothing when there are none. *)

val settle : t -> unit
(** Forget the recorded waiters. Sound only when the graph is acyclic. *)

(** {2 Cycle enumeration}

    Victim choice reads the cycles through a requester in a flat record
    (DESIGN.md Section 16), written straight by the enumeration's DFS. *)

type cycles = private {
  mutable epoch : int;
      (** the graph's edge-removal count when recorded; [-1] for a record
          not enumerated from a graph *)
  mutable n_cycles : int;
  mutable first : int array;
      (** cycle [c] owns arc positions [first.(c)] to [first.(c+1) - 1];
          [first.(0) = 0] *)
  mutable member : int array;
      (** per arc, the member it enters, as an index into [members]. A
          DFS cycle [root; v1; ...; vk] is recorded as the arcs into
          [v1; ...; vk; root]. *)
  mutable release : entity array;
      (** per arc, the entity labelling it — the one its member must
          release to delete the arc (the predecessor's wait label) *)
  mutable members : txn array;
      (** the distinct members, ascending, in [members.(0 .. n_members-1)] *)
  mutable n_members : int;
}

val enumerate : ?limit:int -> t -> txn -> cycles
(** The simple cycles through the transaction, at most [limit] (default
    10,000) of them and cut short by an edge-traversal budget, in DFS
    order. The record belongs to [t]: the next enumeration overwrites it.
    Allocation-free once its buffers have grown (a [[@hot]] path, so
    deep-lint rule A1 checks it). *)

val cycles_through : ?limit:int -> t -> txn -> txn list list
(** {!enumerate}, each cycle as its vertex list starting at the
    transaction. *)

val arcs : cycles -> (txn * entity) list list
(** Each cycle as its (member, entity to release) arcs, in record order. *)

val cycles_of_arcs : (txn * entity) list list -> cycles
(** A fresh record holding the given cycles of (member, entity) arcs —
    the inverse of {!arcs}. *)

val member_index : cycles -> txn -> int
(** Position of the transaction in [members], or [-1]. *)

val keep_cycles : cycles -> (int -> bool) -> unit
(** Keep only the cycles whose index satisfies the predicate (evaluated
    once per cycle, against the record as it was), in order, and drop the
    members left on none of them. *)

(** {2 A requester's component}

    The cut policies decide most deadlocks from the requester's strongly
    connected component, without listing its cycles (DESIGN.md Section
    16, "The cut by max-flow"). *)

type component = private {
  mutable complete : bool;
      (** the component without its root is acyclic, and {!enumerate}
          with the same [limit] would stop at neither of its caps: the
          cycles through the root are then exactly the root-to-root paths
          of the component, and the enumeration would record them all *)
  mutable n_cycles : int;  (** the cycles through the root, if [complete] *)
  mutable members : txn array;
      (** the component, ascending, in [members.(0 .. n_members-1)] *)
  mutable n_members : int;
  mutable root : int;  (** the root's index in [members] *)
  mutable first : int array;
  mutable heads : int array;
      (** member [i]'s edges within the component go to the members
          [heads.(p)], [p] from [first.(i)] to [first.(i+1) - 1],
          ascending *)
  mutable labels : entity array;
      (** member [i]'s wait label, carried by each of its out-edges: the
          entity a member entered from [i] on a cycle must release *)
}

val component : ?limit:int -> t -> txn -> component
(** The strongly connected component of the transaction, with the count
    of its cycles (saturating) and whether {!enumerate} [~limit] (default
    10,000) would be complete on it. A transaction on no cycle gets an
    empty, complete record with no cycles; past an incomplete verdict the
    other fields may be partial. The record belongs to [t]: the next call
    overwrites it. Allocation-free once its buffers have grown (a
    [[@hot]] path, so deep-lint rule A1 checks it). *)

val intact : t -> cycles -> bool
(** Has no edge of the graph been removed since the record was
    enumerated from it — so that every arc it holds is still an edge?
    Constant-time and allocation-free: the bug guard that a record is
    not resolved after the graph moved on. *)

val is_exclusive_forest : t -> bool
(** Theorem 1 shape check for exclusive-only systems: out-degree <= 1
    everywhere and acyclic. *)

val pp : Format.formatter -> t -> unit
(** Renders edges as ["T2 -b-> T3"] lines, matching the paper's figures. *)
