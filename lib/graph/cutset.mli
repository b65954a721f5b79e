(** Minimum-cost vertex cut sets for deadlock removal (paper Section 3.2).

    With shared and exclusive locks one wait response may close many cycles
    at once — all passing through the requesting transaction — and optimal
    deadlock removal asks for a set of transactions of minimum total
    rollback cost whose removal breaks every cycle. The paper notes this is
    (believed) NP-complete, kin to feedback vertex set. As a hitting set
    over an arbitrary list of cycles it is, and that is what this module
    solves: an exact exponential solver for the small instances real
    deadlocks produce, and a greedy heuristic for scale, benchmarked one
    against the other (experiment E8/fig3). The engine hands it such lists
    when an enumeration was cut short at the cycle limit or its edge
    budget, or filtered (the distributed engine's site and visibility
    filters).

    When the instance is every cycle through the requester, it is not
    hard: a cut that spares the requester separates its successors from
    its predecessors, a minimum-cost s–t vertex cut, which {!Flow_cut}
    finds by max-flow without listing the cycles, tiers and fallback
    included (DESIGN.md Section 16, "The cut by max-flow"). *)

type instance = {
  cycles : int list list;  (** each cycle as a list of vertex ids *)
  cost : int -> float;  (** rollback cost of removing a vertex *)
}

type indexed
(** An instance over candidate indices, costs already evaluated, held as
    two transposed bitmask forms: each cycle's candidates and each
    candidate's cycles (DESIGN.md Section 16). Both solvers run on it;
    lower indices win ties. *)

val of_cycles :
  n_cycles:int ->
  first:int array ->
  member:int array ->
  tier:int array ->
  fallback:int ->
  cost:(int -> float) ->
  indexed
(** The instance over vertices [0 .. Array.length tier - 1] of cycles laid
    out flat: cycle [c] is the vertices [member.(p)] for [p] from
    [first.(c)] to [first.(c+1) - 1], repeats allowed — a
    {!Prb_wfg.Waits_for.cycles} record's layout, read in one pass. A
    cycle's candidates are its vertices of the lowest tier present on it,
    tier 0 before tier 1; a vertex of tier 2 or above never is one unless
    it is [fallback], which a cycle with no vertex below tier 2 falls back
    to when [fallback] lies on it. Asks [cost] once per candidate,
    ascending. *)

val exact_indexed : ?node_budget:int -> indexed -> int list option
(** {!exact} on an indexed instance: candidate indices, ascending. *)

val greedy_indexed : indexed -> int list
(** {!greedy} on an indexed instance: candidate indices, ascending. *)

val exact : ?node_budget:int -> instance -> int list option
(** Branch-and-bound minimum-cost hitting set over the cycles. Returns the
    chosen vertices sorted ascending, [None] only if the search exceeds
    [node_budget] expansions (default [1_000_000]) without proving an
    optimum — callers then fall back to {!greedy}. An instance with no
    cycles yields [Some []]. Deterministic: ties broken by vertex id.
    Evaluates [cost] once per distinct vertex. *)

val greedy : instance -> int list
(** Classic set-cover heuristic: repeatedly remove the vertex with the best
    (cycles hit / cost) ratio until no cycle survives. ln(n)-approximate
    for hitting set; linear-ish in practice. *)

val total_cost : instance -> int list -> float
(** Sum of costs of a vertex set. *)

val is_cut : instance -> int list -> bool
(** Does the set intersect every cycle? *)
