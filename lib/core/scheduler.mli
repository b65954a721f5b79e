(** The database concurrency control: a deterministic discrete-event
    scheduler executing transaction programs under two-phase locking with
    deadlock detection and partial-rollback removal.

    Each runnable transaction executes one operation per tick, round-robin
    through an event queue with deterministic tie-breaking; blocked
    transactions consume no ticks and wake when granted. A lock request
    that would close a cycle in the waits-for graph triggers resolution:
    cycles through the requester are enumerated, the {!Policy} picks
    victims via {!Resolver}, and each victim rolls back per its
    {!Prb_rollback.Strategy} — far enough to release the contested
    entities, and no further than that strategy can restore.

    Given the same store, programs, configuration and seed, every run is
    bit-for-bit identical. *)

type t

(** How the system deals with deadlocks — the paper's
    detect-and-partially-roll-back, or the classic alternatives it is
    positioned against. *)
type intervention =
  | Detect
      (** detect at request time, choose victims by {!Policy}, remove by
          partial rollback — the paper's scheme *)
  | Timeout_abort of int
      (** no detection at all: a transaction blocked for the given number
          of ticks restarts itself — the crude baseline of early systems;
          deadlocks persist until a timer fires and the victim loses
          everything *)
  | Wound_wait_c
      (** timestamp prevention: an older requester wounds younger
          blockers, which partially roll back just far enough to release
          the entity; a younger requester waits. No cycle can form. *)
  | Wait_die_c
      (** timestamp prevention: an older requester waits; a younger one
          "dies" (restarts, keeping its timestamp). No cycle can form. *)

type config = {
  strategy : Prb_rollback.Strategy.t;
  policy : Policy.t;
  intervention : intervention;
  detection : Detection_policy.t;
      (** when to run deadlock detection under [Detect]: [Eager]
          (default — at every blocked request, byte-identical to the
          pre-policy engine) or one of the deferred policies, which keep
          the request path detection-free and run scheduled sweeps
          instead (DESIGN.md Section 11). Deferred
          policies are guarded by a stall watchdog: a transaction blocked
          longer than {!Detection_policy.stall_bound} with no sweep since
          it blocked forces one. Ignored by the non-[Detect]
          interventions, which do not detect at all *)
  starvation_limit : int option;
      (** the starvation guard: [Some k] makes a transaction rolled back
          [k] times immune to victim selection (the resolver picks it only
          when some cycle offers nobody else, reported as
          [starvation_fallbacks]); [None] (default) disables the guard *)
  seed : int;  (** drives only the [Random_victim] policy *)
  max_ticks : int;  (** hard stop against livelock (paper Figure 2) *)
  cycle_limit : int;  (** bound on cycle enumeration per deadlock *)
  fair_locking : bool;
      (** [true] (default): queue-respecting grants — required for
          liveness with shared locks (see {!Prb_lock.Lock_table});
          [false]: the paper's availability rule, identical on
          exclusive-only workloads *)
  faults : Prb_fault.Fault.plan option;
      (** transaction crashes and detector outages (the centralised
          engine has no sites or messages): each scheduled crash picks a
          live growing transaction, rolls it back to state 0 and
          re-admits it after a delay that doubles with repeated crashes
          of the same transaction (DESIGN.md Section 7). Detector outages
          suppress the deferred policies' scheduled sweeps (counted as
          [missed_passes]) and the watchdog re-arms for the
          first healthy tick, so recovery sweeps promptly; [Eager]
          detection is inline in the request path — not a detector
          service — and is unaffected *)
  clock : (unit -> float) option;
      (** when set (e.g. to [Unix.gettimeofday]), wall-clock seconds spent
          in deadlock detection are accumulated and reported by
          {!check_seconds} and {!enumerate_seconds}; [None] (default)
          keeps the request path free of clock calls. Never affects
          scheduling decisions, so runs stay bit-for-bit deterministic
          either way *)
}

val default_config : config
(** [Sdg] strategy, [Detect] intervention, [Eager] detection (no
    starvation limit), [Ordered_min_cost] policy, seed 1, 1_000_000
    ticks, {!Engine.default_cycle_limit} cycles, fair locking, no
    faults. *)

val create : ?config:config -> Prb_storage.Store.t -> t
(** @raise Invalid_argument on a [Periodic n] detection policy with
    [n < 1] ({!Detection_policy.check}). *)

val config : t -> config
val store : t -> Prb_storage.Store.t

val submit :
  ?copy_allocation:(string -> int) -> t -> Prb_txn.Program.t -> int

(** Admit a transaction; returns its id. Ids increase with admission
    order, which is the entry order used by [Ordered_min_cost] and
    [Youngest]. [copy_allocation] grants per-object extra retained
    versions (see {!Prb_rollback.Txn_state.create} and
    {!Prb_rollback.Allocation}). @raise Invalid_argument on an invalid
    program. *)

val submit_at :
  ?copy_allocation:(string -> int) -> t -> at:int -> Prb_txn.Program.t -> int
(** Admit a transaction that arrives at a future tick (clamped to now):
    its first event fires then and its {!latency} clock starts then. Used
    by open-system (arrival process) simulations. Calls must be made in
    nondecreasing arrival order for ids to remain the entry order. *)

val step : t -> bool
(** Process one event; [false] when no work remains (all submitted
    transactions committed) or [max_ticks] was reached. *)

val run : t -> unit
(** Step until done. *)

val now : t -> int

val txn_state : t -> int -> Prb_rollback.Txn_state.t
(** {!Engine.txn_state}: a committed id's state is rebuilt on each call.
    @raise Not_found for unknown ids. *)

val all_txns : t -> int list
(** Submitted ids, ascending. *)

val n_committed : t -> int
val all_committed : t -> bool

val waits_for : t -> Prb_wfg.Waits_for.t
(** Live view — do not mutate. *)

val lock_table : t -> Prb_lock.Lock_table.t
(** Live view — do not mutate. *)

val history : t -> Prb_history.History.t

val check_seconds : t -> float
(** Wall-clock seconds spent inside the boolean deadlock checks — the
    [would_deadlock] probe of a blocked request and the cycle-membership
    census seeding each resolution round — when {!config}[.clock] is set;
    [0.] otherwise. The benchmark harness reports this (with
    {!enumerate_seconds}) as the detection-time share; victim selection
    and rollback application are deliberately excluded. *)

val check_calls : t -> int
(** Boolean deadlock checks actually run: [would_deadlock] probes under
    [Eager] plus the census pass seeding each fixpoint round of
    sweeps. *)

val enumerate_seconds : t -> float
(** Wall-clock seconds spent enumerating the cycles a detected deadlock
    hands to the resolver, when {!config}[.clock] is set; [0.]
    otherwise. *)

val enumerate_calls : t -> int
(** Cycle enumerations run (one per resolution attempt that got past the
    boolean check). *)

val n_blocked_tracked : t -> int
(** Size of the internal blocked-since table (every currently-blocked
    transaction, whatever the intervention) — exposed so tests can assert
    it does not leak across commits. *)

(** The statistics record both engines report ({!Run_stats.stats}),
    counted in place in the engine core's record ({!Engine.stats}). This
    engine counts [txn_crashes] and [watchdog_fires] there too; the site
    and message counters and the local/global deadlock split read 0. *)
include module type of struct
  include Run_stats
end

val stats : t -> stats

val latency : t -> int -> int option
(** Ticks from admission to commit, once the transaction has committed:
    the response time the paper's introduction worries about. *)

val set_deadlock_hook :
  t ->
  (requester:int -> cycles:Resolver.cycle list -> decision:Resolver.decision -> unit) ->
  unit
(** Observe every resolution round (tracing, preemption-chain metrics —
    e.g. Figure 2's mutual-preemption experiment). *)

val pp_stats : Format.formatter -> stats -> unit

exception Stuck of string
(** Raised when deadlock resolution fails to make progress (a bug guard,
    not an expected outcome). *)
