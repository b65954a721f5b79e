(** Minimum-cost cut of every cycle through a root, by max-flow
    (DESIGN.md Section 16, "The cut by max-flow").

    When every cycle of an instance passes through one vertex [r] — the
    requester of a Section 3.2 deadlock — a set of other vertices breaks
    them all exactly when it separates [r]'s successors from its
    predecessors: a minimum-cost s–t vertex cut, which max-flow over
    split vertices finds in polynomial time (Menger). This module solves
    the instance {!Cutset.of_cycles} builds from those cycles, tiers and
    requester fallback included, without listing the cycles: a cycle's
    candidates are its vertices of the lowest tier present on it, tier 0
    before tier 1, and a cycle with no vertex below tier 2 falls back to
    [r]. The cycles split by that lowest tier into three classes with
    disjoint candidates, and each class is one cut on a two-layer copy of
    the graph (layer 1 once the path has entered a vertex of the class's
    tier), so the optimum is the union of the classes' optima. *)

type t
(** Reusable scratch: the flow network and its search marks. *)

val create : unit -> t

type verdict =
  | Unique of int list
      (** the one minimum-cost cut, its vertices ascending *)
  | Tied of int
      (** the minimum cost, which more than one cut reaches *)
  | Over of int
      (** the number of candidates, above [max_candidates]; no cost was
          asked *)

val solve :
  t ->
  ?max_candidates:int ->
  n:int ->
  first:int array ->
  heads:int array ->
  root:int ->
  tier:int array ->
  cost:(int -> int) ->
  unit ->
  verdict
(** The minimum-cost cut of the cycles through [root] in the graph over
    vertices [0 .. n-1] whose vertex [v] has arcs to [heads.(p)] for [p]
    from [first.(v)] to [first.(v+1) - 1], each vertex in tier
    [tier.(v)]. The graph must be [root]'s strongly connected component
    (every vertex on a cycle through [root]), and acyclic without
    [root], so that the walks from [root] back to it are exactly its
    simple cycles — the shape of a complete
    {!Prb_wfg.Waits_for.component}.

    A candidate is a vertex some cycle may lose: a vertex of tier [k < 2]
    on a cycle whose lowest tier is [k], or [root] on a cycle whose
    lowest tier is its own (or any of 2 and above). [cost] is asked once
    per candidate, ascending, and must not be negative; the verdict is
    [Over] if there are more than [max_candidates] (default: no bound).
    [Unique] means no other set of candidates meeting every cycle's
    candidates costs as little — a zero-cost candidate outside the cut
    therefore ties. *)
