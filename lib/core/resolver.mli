(** Choosing which transactions to roll back, and how far, to break a
    deadlock.

    The input is the set of simple cycles the blocked request closed, each
    given as the list of members paired with the entity that member would
    have to release to delete its arc — the "state of highest index in
    which T_i does not hold a lock on an entity [in conflict]" framing of
    Section 3.1. Exclusive-only systems contribute exactly one cycle
    (Theorem 1); shared/exclusive systems contribute many, all through the
    requester (Section 3.2), making the optimum a minimum-cost vertex cut
    which we solve exactly when small and greedily otherwise.

    The resolver is pure: it never mutates the scheduler's state, which
    makes policies unit-testable against hand-built cycle sets (the
    figures). *)

type txn = int
type entity = Prb_storage.Store.entity

type cycle = (txn * entity) list
(** Members in cycle order; each paired with the entity whose release
    deletes that member's inbound arc. The requester appears in every
    cycle. *)

type decision = {
  victims : (txn * entity list) list;
      (** each victim with every entity it must release (the union over
          all cycles it was chosen to break), sorted by txn id *)
  optimal : bool;
      (** true when produced by the exact cut solver; false for greedy
          fallback and for the non-optimising policies *)
  starved_fallback : bool;
      (** true when the starvation guard had to be overridden: some cycle
          offered no non-immune victim, so an [immune] transaction was
          chosen anyway (a deadlock must break; immunity bends before
          liveness does) *)
}

val choose_cycles :
  ?immune:(txn -> bool) ->
  policy:Policy.t ->
  requester:txn ->
  entry_order:(txn -> int) ->
  release_cost:(txn -> entity list -> int) ->
  rng:Prb_util.Rng.t ->
  Prb_wfg.Waits_for.cycles ->
  decision
(** Victim choice over a flat cycle record (DESIGN.md Section 16), each
    arc's entity being the one its member must release. Works out every
    member's released entities, eligibility, immunity and cost at most
    once. Same contract and decisions as {!choose} on the record's
    {!Prb_wfg.Waits_for.arcs}. *)

val choose_flow :
  ?immune:(txn -> bool) ->
  policy:Policy.t ->
  entry_order:(txn -> int) ->
  release_cost:(txn -> entity list -> int) ->
  Prb_graph.Flow_cut.t ->
  Prb_wfg.Waits_for.component ->
  decision option
(** {!choose_cycles}'s decision on the cycles through the component's
    root, its requester, when max flow proves it without listing them
    (DESIGN.md Section 16, "The cut by max-flow"): the policy is
    [Min_cost] or [Ordered_min_cost], the component is
    {{!Prb_wfg.Waits_for.component}[complete]} with a cycle, at most nine
    members are candidates (so branch-and-bound would be exact), and the
    minimum cut is unique. [None] otherwise. Asks [release_cost] only of
    candidates. *)

val choose :
  ?immune:(txn -> bool) ->
  policy:Policy.t ->
  requester:txn ->
  entry_order:(txn -> int) ->
  release_cost:(txn -> entity list -> int) ->
  rng:Prb_util.Rng.t ->
  cycle list ->
  decision
(** @raise Invalid_argument on an empty cycle list or a cycle missing the
    requester. [release_cost v es] is the progress lost if [v] rolls back
    far enough to release all of [es].

    [immune] marks transactions the starvation guard shields from victim
    selection (rolled back too many times already). Every policy prefers
    non-immune members of each cycle; a cycle whose members are all immune
    falls back to them and the decision reports [starved_fallback].
    Defaults to no one, which leaves every policy's choice unchanged.

    Converts the cycles into a record and runs {!choose_cycles}. *)
