(** Reference implementation of {!Prb_graph.Cutset} (the list-prepared
    solver), retained for differential testing only. *)

(** Minimum-cost vertex cut sets for deadlock removal (paper Section 3.2).

    With shared and exclusive locks one wait response may close many cycles
    at once — all passing through the requesting transaction — and optimal
    deadlock removal asks for a set of transactions of minimum total
    rollback cost whose removal breaks every cycle. The paper notes this is
    (believed) NP-complete, kin to feedback vertex set; accordingly we
    provide an exact exponential solver for the small instances real
    deadlocks produce, and a greedy heuristic for scale, and benchmark one
    against the other (experiment E8/fig3). *)

type instance = {
  cycles : int list list;  (** each cycle as a list of vertex ids *)
  cost : int -> float;  (** rollback cost of removing a vertex *)
}

type indexed = {
  costs : float array;  (** [costs.(i)]: rollback cost of candidate [i] *)
  first : int array;
      (** cycle [c]'s candidates are [cands.(first.(c))] to
          [cands.(first.(c+1) - 1)]; [Array.length first] is one more
          than the number of cycles *)
  cands : int array;
      (** each cycle's candidates, ascending and distinct *)
}
(** An instance over candidate indices [0 .. Array.length costs - 1],
    costs already evaluated — the form the resolver builds straight from
    a flat cycle record (DESIGN.md Section 16), and the one both solvers
    run on. *)

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
