(** The chaos harness: randomized fault plans swept over both engines,
    with every run held to the system's safety and liveness contracts.

    Each run executes a bank-transfer workload (whose balance sum is a
    conserved quantity) under a deterministic {!Prb_fault.Fault.plan} and then
    asserts five invariants:

    + {b serializability} of the committed history,
    + {b conservation} — the accounts still sum to the initial total,
    + {b no orphaned locks} — the lock table is empty once everything
      committed,
    + {b no stuck transactions} — every submitted transaction commits
      (no [Stuck], no tick-budget exhaustion),
    + {b replay determinism} — running the same (seed, plan) twice gives
      bit-for-bit identical stats and final store.

    A report with an empty [violations] list is a pass. The harness is
    the robustness analogue of the property tests: the failure regime is
    exactly where a recovery bug (e.g. skipping the lock-table rebuild —
    [rebuild_locks = false]) turns into an orphaned lock or a wedged
    transaction, and the harness is built to catch it. *)

type engine = Centralized | Distributed

type report = {
  engine : engine;
  seed : int;
  label : string;
      (** which matrix cell produced this report ("policy/outage" for
          {!policy_matrix}; empty for plain runs) *)
  plan : Prb_fault.Fault.plan;
  commits : int;
  ticks : int;
  faults_seen : int;
      (** messages lost + duplicated + site crashes + txn crashes +
          missed detector rounds — how much chaos actually landed *)
  violations : string list;  (** empty = every invariant held *)
}

val pp_report : Format.formatter -> report -> unit

val sweep : ?horizon:int -> seeds:int -> unit -> report list
(** For each seed in [0 .. seeds-1], draw a randomized plan per engine
    ({!Prb_fault.Fault.random}; site crashes only for the distributed one),
    run the workload for the seed on both engines under it (twice each,
    for the replay check) and verify all five invariants — [2 * seeds]
    reports, deterministic in the seed range. [horizon] defaults to 400
    ticks. *)

val policy_matrix : seeds:int -> unit -> report list
(** The liveness matrix for deferred detection: every
    {!Prb_core.Detection_policy.all} policy, on both engines, under a
    clean plan and under a detector-outage-only plan (nothing else fails,
    so violations are attributable to detection scheduling), with the
    starvation guard armed. Each cell is checked for the five {!sweep}
    invariants {e plus} the no-starvation bound: when no resolution had
    to override victim immunity, no transaction may have been rolled back
    more than the guard's limit (excused only by degraded-mode forced
    restarts, which bypass victim selection). [3 * 2 * 2 * seeds]
    reports, deterministic in the seed range. *)

val failures : report list -> report list
(** Reports with a non-empty violation list. *)
