(** Mutable directed graph over integer vertices.

    This is the substrate for the paper's concurrency graphs: waits-for
    relations between transactions. Vertex ids are arbitrary ints (we use
    transaction ids); the structure is hash-based so ids need not be dense.

    Edges are unlabelled here — the waits-for layer keeps its own
    entity-label maps — because cycle analysis only needs structure. *)

type t

val create : unit -> t

val copy : t -> t

val add_vertex : t -> int -> unit
(** Idempotent. *)

val remove_vertex : t -> int -> unit
(** Removes the vertex and every incident edge. Idempotent. *)

val mem_vertex : t -> int -> bool

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts [u -> v], creating missing vertices.
    Idempotent (simple graph). *)

val remove_edge : t -> int -> int -> unit

val mem_edge : t -> int -> int -> bool

val succ : t -> int -> int list
(** Successors of a vertex (empty for unknown vertices), in ascending
    order so traversals are deterministic. *)

val pred : t -> int -> int list

val iter_succ : (int -> unit) -> t -> int -> unit
(** Apply to each successor in ascending order, without materialising a
    list — the allocation-free form the traversal hot paths use. *)

val iter_pred : (int -> unit) -> t -> int -> unit

val fold_succ : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val vertices : t -> int list
(** Ascending order. *)

val edges : t -> (int * int) list
(** Lexicographic order. *)

val n_vertices : t -> int
(** O(1) — the vertex table's size. *)

val n_edges : t -> int
(** O(1) — maintained incrementally by the edge operations rather than
    recounted by a table scan. *)

val reachable : t -> int -> (int, unit) Hashtbl.t
(** Vertices reachable from the source by one or more edges (the source
    itself is included only if it lies on a cycle through itself). *)

val path_exists : t -> int -> int -> bool
(** [path_exists g u v] — is there a directed path (length >= 1) from [u]
    to [v]? Early-exit DFS: stops the moment [v] is reached instead of
    computing full reachability, so a target adjacent to the source is
    O(out-degree) no matter how large the graph. *)

val path_exists_from_any : t -> int list -> int -> bool
(** [path_exists_from_any g sources v] — does a directed path (length
    >= 1) reach [v] from {e any} source? One DFS with a shared visited
    set and early exit, not one full traversal per source — the deadlock
    check for a multi-holder block ([Waits_for.would_deadlock]). *)

val find_cycle : t -> int list option
(** Some simple cycle as a vertex list [v1; ...; vk] with implied edges
    [v1->v2 ... vk->v1], or [None] if the graph is acyclic. *)

val has_cycle : t -> bool

val cycle_through : t -> int -> int list option
(** A simple cycle containing the given vertex, if any; the returned list
    starts at that vertex. *)

val cycles_through : ?limit:int -> ?budget:int -> t -> int -> int list list
(** All simple cycles containing the vertex (each starting at it), for the
    shared-lock deadlock analysis where one wait can close many cycles.
    Enumeration stops after [limit] cycles (default 10_000) or [budget]
    edge traversals (default [200 * (limit + 50)]) — the simple-path space
    is exponential on dense graphs, so both caps are needed. Truncation is
    safe for resolution loops that re-enumerate after acting. *)

val is_forest_inverted : t -> bool
(** True iff every vertex has out-degree <= 1 and the graph is acyclic —
    the shape Theorem 1 gives exclusive-lock waits-for graphs (each waiter
    waits for exactly one holder). *)

val scc : t -> int list list
(** Strongly connected components (Tarjan), each sorted ascending, in
    reverse topological order of the condensation. *)

val scc_from : t -> int list -> int list list
(** SCCs of the subgraph reachable from the given roots (Tarjan seeded at
    the roots; unknown roots are skipped). Any SCC containing a root, or
    reachable from one, is reported exactly as {!scc} would. *)

val cyclic_vertices_from : t -> int list -> int list
(** Ascending list of vertices that lie on some cycle reachable from the
    roots: members of non-trivial SCCs, plus self-loops. Used by the
    incremental deadlock fixpoint — every new cycle must pass through a
    vertex whose out-edges changed, so seeding here with the changed
    waiters finds every cycle. *)

val topological_sort : t -> int list option
(** [None] when cyclic. *)
