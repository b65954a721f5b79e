(** Distributed execution substrate for Section 3.3.

    Entities are partitioned across sites; transactions run from a home
    site and acquire locks remotely, paying messages. The lock tables
    behave exactly as in the centralised engine (locking is per entity, so
    correctness is unchanged); what the distribution changes is {e what
    the deadlock detector can see and when}, and {e what a rollback
    costs in communication}:

    - {b Local_then_global}: a site detects immediately any cycle all of
      whose contested entities live on that site; cross-site cycles are
      only found by a periodic global detector to which every site ships
      its waits-for edges (paper: "the occurrence of deadlocks involving a
      number of sites cannot be detected by [a single] site").
    - {b Wound_wait}: the timestamp-based prevention the paper cites as an
      alternative — an older requester wounds a younger holder, which
      {e partially rolls back} just far enough to release the entity
      (the paper's point that such mechanisms "in no way invalidate the
      advantages of rolling a transaction back to the latest possible
      state"); a younger requester simply waits. No cycles can form.

    Message accounting (flat cost model, documented in DESIGN.md):
    remote lock request/grant = 2, remote release = 1, wound = 1 per
    remote holder site, global detection round = one WFG shipment per
    site, and — partial-rollback strategies only — every time a
    transaction's lock stream moves between sites its version bookkeeping
    follows it (messages +1, [shipped_copies] += its current copy count),
    the overhead Section 3.3 warns about.

    {2 Failure model}

    A {!Prb_fault.Fault.plan} in the config turns on the failure regime
    (DESIGN.md Section 7). With a plan installed, remote lock requests,
    grant replies, and unlock/commit releases become real messages that
    can be lost, duplicated or delayed; requesters keep a timeout probe
    alive and retransmit with bounded exponential backoff, and every
    handler is idempotent, so duplicates and stale replies are harmless.
    Sites crash and recover: a crash fully restarts every growing
    transaction homed there and partially rolls back (per strategy, to
    the last state not touching the site) every growing remote holder of
    its entities; shrinking transactions are immune (past their commit
    point — Section 2's no-rollback-after-unlock rule). On recovery the
    site's lock-table fragment is rebuilt: queued requests are dropped
    (their owners retransmit on probe) and holder rows not backed by a
    surviving transaction are purged. While the global detector is in an
    outage window the scheduler degrades to per-transaction timeout-abort
    of long-blocked transactions. Rollback-released locks are always
    released synchronously (a reliable coordination round, matching the
    seed's per-site message accounting) — an asynchronous release could
    race with the victim's own re-request of the same entity.

    Runs remain deterministic in (config seed, fault plan): replaying the
    same pair reproduces the run bit-for-bit. *)

type detection =
  | Local_then_global of int
      (** period (ticks) between global detection rounds *)
  | Wound_wait

type config = {
  n_sites : int;
  detection : detection;
  detection_policy : Prb_core.Detection_policy.t;
      (** cadence of the global-detector service under
          [Local_then_global]: [Eager] (default) runs a full round at
          every firing, every [period] ticks — byte-identical to the
          pre-policy engine. The deferred policies reschedule the service
          by their own rule — [Periodic n] fires every [n] ticks and
          [Adaptive] tunes its interval to the deadlock-arrival rate.
          Site-local block-time detection is inline in the request path
          (not a service) and always runs; under a deferred policy every
          resolution round, local ones included, is a deferred round
          (small cycle budget, cut-solver routing, victim backoff and
          escalation). Ignored under [Wound_wait] *)
  starvation_limit : int option;
      (** [Some k]: a transaction rolled back [k] times becomes immune to
          victim selection (overridden only when a cycle offers nobody
          else, counted as [starvation_fallbacks]); [None] (default)
          disables the guard *)
  strategy : Prb_rollback.Strategy.t;
  policy : Prb_core.Policy.t;
  seed : int;
  max_ticks : int;
  faults : Prb_fault.Fault.plan option;
      (** [None] (default) is the failure-free world; [Some plan] enables
          site crashes, message faults and detector outages *)
  clock : (unit -> float) option;
      (** wall-clock source for the detection-cost accounting
          ([check_seconds]/[enumerate_seconds] in {!stats}); [None]
          (default) records zero. Orthogonal to determinism: the clock
          only feeds the cost counters, never control flow *)
}

val default_config : config
(** 4 sites, [Local_then_global 50], [Eager] detection policy (no
    starvation limit), [Sdg], no faults,
    {!Prb_core.Engine.default_cycle_limit} cycles per deadlock, and —
    unlike the centralised
    engine — the [Youngest] victim policy: periodic global detection
    works from stale snapshots without a meaningful requester, and the
    cost-optimising policies then re-victimise the same cheap transaction
    every round (Figure 2's pathology resurrected by staleness; measured
    in E10b). Age-based selection converges, which is why the distributed
    literature the paper cites uses timestamps. (Deferred rounds facing
    more than one cycle are nonetheless routed through the Section 3.2
    vertex cut as [Ordered_min_cost] — with the starvation guard
    available to bound any re-victimisation.) *)

type t

val create :
  ?site_of:(Prb_storage.Store.entity -> int) ->
  config ->
  Prb_storage.Store.t ->
  t
(** [site_of] defaults to {!Prb_storage.Value.string_hash} of the entity
    name modulo [n_sites], which allocates nothing. Message routing asks
    it once per entity and keeps the answer by store id; the site-local
    block-time probe still asks it once per waiter it searches through
    (waits-for labels are names), and detection rounds once per cycle
    arc, so it should be cheap and allocation-free.
    @raise Invalid_argument when [n_sites < 1], on a
    [Local_then_global] period below 1, or on a [Periodic n] detection
    policy with [n < 1] ({!Prb_core.Detection_policy.check}). A [site_of]
    that maps an entity outside [0 .. n_sites-1] raises
    [Invalid_argument] naming the entity, the site and [n_sites] from the
    first {!step} or {!val-site_of} that asks for that entity. *)

val config : t -> config

val submit : t -> home:int -> Prb_txn.Program.t -> int
(** Timestamps for wound-wait are admission order (smaller id = older). *)

val step : t -> bool
val run : t -> unit

val now : t -> int
val n_committed : t -> int
val all_committed : t -> bool
val txn_state : t -> int -> Prb_rollback.Txn_state.t
(** {!Prb_core.Engine.txn_state}: a committed id's state is rebuilt on each
    call. *)

val history : t -> Prb_history.History.t
val site_of : t -> Prb_storage.Store.entity -> int

val waits_for : t -> Prb_wfg.Waits_for.t
(** Live view — do not mutate. *)

val lock_table : t -> Prb_lock.Lock_table.t
(** Live view — do not mutate. *)

(** The statistics record both engines report
    ({!Prb_core.Run_stats.stats}). This engine supplies the site, message
    and message-fault counters and the local/global deadlock split;
    [timeouts] counts degraded-mode aborts while the detector was out,
    [detection_passes] global rounds and [missed_passes] rounds skipped by
    detector outages. [txn_crashes] and [watchdog_fires] read 0. *)
include module type of struct
  include Prb_core.Run_stats
end

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

exception Stuck of string
