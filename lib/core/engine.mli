(** The engine core both schedulers embed (DESIGN.md Section 15).

    The paper has one deadlock-removal mechanism, and Section 3.3 says
    distribution changes only what the detector sees and what a rollback
    costs in messages. So the dense per-transaction state, the shared
    counters, the starvation guard, clocked detection calls, victim
    costing, every lock-table transition, rollback application, the
    resolution fixpoint and the scheduled detection pass live here once,
    with one resolution rule: a round's [deferred] flag alone decides its
    cycle budget, its cut-solver routing and its victims' backoff and
    escalation. Entities travel as the store's ids
    ({!Prb_storage.Store.id}), resolved per lock state at admission;
    waits-for labels and the resolver's lists stay names. Engine-specific
    steps are top-level functions of the embedder's state ['s], passed as
    labelled arguments so no call builds a closure: [granted s w x] tells
    [w] it was granted [x]; [blocked s id x holders] is what a block
    triggers; [drop_wait s v] abandons [v]'s pending request; [release s
    v released] releases what a rollback gave up; [restart s v
    ~resume_at] is the engine's full restart. The core also fills the one
    {!Run_stats.stats} record both engines report. *)

module Store = Prb_storage.Store
module Txn_state = Prb_rollback.Txn_state

exception Stuck of string
(** Resolution failed to make progress (a bug guard). Both schedulers
    re-export it. *)

val log_src : Logs.src
(** ["prb.scheduler"]: grants, blocks, deadlocks and rollbacks. *)

type t = {
  strategy : Prb_rollback.Strategy.t;
  policy : Policy.t;
  detection : Detection_policy.t;
  cadence : Detection_policy.cadence;  (** the [Adaptive] pass cadence *)
  starvation_limit : int option;
  cycle_limit : int;
  clock : (unit -> float) option;
  store : Store.t;
  locks : Prb_lock.Lock_table.t;
  wfg : Prb_wfg.Waits_for.t;
  hist : Prb_history.History.t;
  rng : Prb_util.Rng.t;
  events : Prb_util.Dense.Pqueue.t;
      (** tag {!ev_exec} is shared; other tags belong to the embedder *)
  pool : Prb_rollback.History_stack.Pool.t;
  mutable txns : Txn_state.t option array;
      (** by dense id, [Some] from admission until commit retires it *)
  mutable programs : Prb_txn.Program.t array;  (** by id, from admission *)
  mutable rollback_counts : int array;
  mutable executed : int array;
      (** by id, set at commit: {!Txn_state.total_executed} *)
  mutable peak_copies : int array;  (** by id, set at commit *)
  mutable monitored_writes : int array;  (** by id, set at commit *)
  mutable blocked_since : int array;  (** [-1] when not blocked *)
  mutable n_blocked : int;
  mutable oldest_live : int;  (** every smaller id is committed *)
  mutable hook :
    (requester:int ->
    cycles:Resolver.cycle list ->
    decision:Resolver.decision ->
    unit)
    option;
      (** shown every resolution decision, before its victims roll back *)
  mutable next_id : int;
  mutable tick : int;
  mutable commits : int;
  mutable deadlocks : int;  (** resolution rounds *)
  mutable cycles_broken : int;
  mutable rollback_events : int;
  mutable requeue_events : int;
  mutable overshoot_ops : int;
  mutable optimal_resolutions : int;
  mutable ops_committed : int;  (** counted by {!commit} *)
  mutable committed_executed : int;
  mutable committed_peak_copies : int;
      (** the committed transactions' share of {!stats}' aggregates *)
  mutable timeouts : int;
  mutable preventions : int;  (** {!wound_younger} counts its wounds *)
  mutable detection_passes : int;
  mutable missed_passes : int;
  mutable starvation_fallbacks : int;
  mutable max_blocked_ticks : int;
  mutable total_blocked_ticks : int;
  mutable check_seconds : float;
  mutable check_calls : int;
  mutable enumerate_seconds : float;
  mutable enumerate_calls : int;
  flow : Prb_graph.Flow_cut.t;  (** the max-flow cut's scratch *)
  mutable flow_incomplete : int;
  mutable flow_tied : int;
  mutable flow_decided : int;
      (** the rounds max flow looked at, by outcome: {!Run_stats.stats} *)
}

val default_cycle_limit : int
(** 256: the cycle-enumeration bound per deadlock of both engines'
    default configurations. *)

val create :
  strategy:Prb_rollback.Strategy.t ->
  policy:Policy.t ->
  detection:Detection_policy.t ->
  starvation_limit:int option ->
  cycle_limit:int ->
  clock:(unit -> float) option ->
  seed:int ->
  fair:bool ->
  Store.t ->
  t
(** @raise Invalid_argument on a [Periodic n] detection policy with
    [n < 1] ({!Detection_policy.check}). *)

(** {2 Transactions} *)

val ev_exec : int
(** Event tag of "run transaction [a]'s next step". *)

val schedule_at : t -> int -> at:int -> unit

val admit : ?copy_allocation:(string -> int) -> t -> Prb_txn.Program.t -> int
(** Allocate the next dense id and its state; schedules nothing. *)

val grown : 'a array -> int -> 'a -> 'a array
(** [grown a cap fill]: [a] padded to length [cap] — for an embedder's
    own per-transaction arrays, kept at [Array.length t.txns]. *)

val live_state : t -> int -> Txn_state.t
(** The state of an admitted, uncommitted transaction.
    @raise Not_found for any other id. *)

val txn_state : t -> int -> Txn_state.t
(** The live state, or for a committed id its disposed state rebuilt by
    {!Txn_state.committed} (a fresh value on every call).
    @raise Not_found for unknown ids. *)

val live_ids : t -> int list
(** Admitted, uncommitted ids in ascending order, found between
    [oldest_live] and [next_id]. *)

val max_txn_rollbacks : t -> int

val unlock : t -> int -> int
(** Perform the pending unlock: install the final value and close the
    history interval. Returns the entity's id, whose lock the caller
    releases. *)

val commit :
  t -> 's -> release:('s -> int -> int -> unit) -> int -> unit
(** Commit: install the final values, close the intervals of the locks
    still held and [release] each, count the program's length in
    [ops_committed], then retire the transaction: its history buffers go
    back to the pool, its accounting into the [committed_*] counters and
    the id-indexed arrays, and its state is dropped. *)

(** {2 The request path} *)

val request :
  t ->
  's ->
  granted:('s -> int -> int -> unit) ->
  blocked:('s -> int -> int -> int list -> unit) ->
  int ->
  Prb_txn.Lock_mode.t ->
  int ->
  unit
(** [request t s ~granted ~blocked id mode x] asks for entity id [x]. A
    grant opens the request's history interval and re-points the entity's
    waiters; a block installs its waits-for edges, labelled with the
    entity's name, and starts its wait clock. *)

val release :
  t -> 's -> granted:('s -> int -> int -> unit) -> int -> int -> unit
(** Release one lock: grant the waiters it unblocks (their waits end,
    their intervals open) and re-point the rest. *)

val withdraw : t -> 's -> granted:('s -> int -> int -> unit) -> int -> unit
(** Withdraw the transaction's queued request, if any, granting as
    {!release}, and end its wait. *)

val end_wait : t -> int -> unit
(** Clear the waiter's edges and fold its wait into the blocked-time
    statistics. *)

(** {2 Detection}, counted and (with a clock) timed *)

val would_deadlock :
  ?label_ok:(Store.entity -> bool) -> t -> waiter:int -> holders:int list -> bool
(** A check: {!Prb_wfg.Waits_for.would_deadlock}, with its wait-label
    filter when given. *)

val resolver_cycles : t -> deferred:bool -> int -> Prb_wfg.Waits_for.cycles
(** An enumeration: at most [cycle_limit] cycles through the requester —
    at most 8 in a [deferred] round — as a flat record of (member, entity
    it must release) arcs. The record is the waits-for graph's own and is
    overwritten by the next enumeration. *)

(** {2 Rollback} *)

val restart :
  t ->
  's ->
  drop_wait:('s -> int -> unit) ->
  release:('s -> int -> int list -> unit) ->
  resume_at:int ->
  int ->
  unit
(** Roll back to state 0, releasing everything. *)

val apply_partial_rollback :
  t ->
  's ->
  drop_wait:('s -> int -> unit) ->
  release:('s -> int -> int list -> unit) ->
  deferred:bool ->
  stagger:int ->
  int ->
  Store.entity list ->
  unit
(** Requeue, or roll back to the latest state releasing every held arc of
    the named entities (counting overshoot) and hand [release] the ids it
    gave up; resume next tick, backed off in deferred rounds. *)

val apply_rollback :
  t ->
  's ->
  drop_wait:('s -> int -> unit) ->
  release:('s -> int -> int list -> unit) ->
  restart:('s -> int -> resume_at:int -> unit) ->
  deferred:bool ->
  stagger:int ->
  int ->
  Store.entity list ->
  unit
(** {!apply_partial_rollback}, or [restart] after a quadratic delay for a
    deferred round's member already rolled back four times. *)

val wound_younger :
  t ->
  's ->
  wound:('s -> int -> int -> int -> unit) ->
  int ->
  int ->
  int list ->
  unit
(** [wound_younger t s ~wound requester x blockers]: wound-wait
    prevention. Each growing blocker [b] younger than [requester] (a
    larger id) is counted in [preventions] and handed to [wound s
    requester x b], which rolls it back far enough to release [x].
    Shrinking blockers are immune. *)

(** {2 Resolution} *)

val resolve_round :
  t ->
  's ->
  deferred:bool ->
  apply:('s -> deferred:bool -> stagger:int -> int -> Store.entity list -> unit) ->
  int ->
  Prb_wfg.Waits_for.cycles ->
  unit
(** Count and log the round, choose victims — a [deferred] multi-cycle
    round sends the single-victim policies through the cut solver — show
    the decision to [hook] (with the cycles as lists, built only then)
    and [apply] each victim with its position as the stagger.
    @raise Stuck if the waits-for graph has lost an edge since the
    record was enumerated ({!Prb_wfg.Waits_for.intact}). *)

val resolve :
  t ->
  's ->
  deferred:bool ->
  ?keep:(Prb_wfg.Waits_for.cycles -> int -> bool) ->
  apply:('s -> deferred:bool -> stagger:int -> int -> Store.entity list -> unit) ->
  int option ->
  unit
(** The resolution fixpoint: until no blocked transaction lies on a
    cycle, take a census seeded at {!Prb_wfg.Waits_for.changed} (a
    check), enumerate the cycles through its members — [primary] first
    when it is one, then ascending — and {!resolve_round} the first with
    cycles left after [keep] (cycle [k] of a record survives when
    [keep cycles k]). With no [keep], a round whose policy comes out a
    cut policy is first offered to max flow over the member's component
    ({!Resolver.choose_flow}), which decides it without enumerating when
    it provably picks the same victims; a [hook] then still gets the
    enumerated cycles (an enumeration counted and timed as one). An
    empty census {!Prb_wfg.Waits_for.settle}s the
    graph; when no member has cycles left, it returns unsettled. Both
    engines' detection passes and the central eager check end here.
    @raise Stuck after 1000 rounds. *)

val scheduled_pass :
  t -> outage:bool -> period:int -> (unit -> unit) -> int
(** One firing of the scheduled detection service: during an [outage] a
    missed pass, otherwise the pass, whose outcome (did [deadlocks]
    grow?) adapts the [Adaptive] cadence. Returns the delay until the
    next firing: the cadence's interval, [n] under [Periodic n], and
    [period] under [Eager], whose only scheduled passes are the
    distributed engine's global rounds. *)

(** {2 Statistics} *)

val stats : t -> Run_stats.stats
(** Every counter the core keeps, and [deferred_detection]; the
    engine-specific ones ([txn_crashes], [watchdog_fires], the site and
    message counters, the local/global deadlock split) read 0, for the
    embedder to supply. *)
