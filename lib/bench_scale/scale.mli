(** The E13 scaling benchmark: a reproducible throughput sweep over
    transaction count × contention on both engines, reported as a table
    and as machine-readable JSON ([BENCH_scale.json]) so successive PRs
    accumulate a performance trajectory.

    Shared by [bench/main.exe -- E13] and [prb bench]. Simulation
    outcomes (commits, deadlocks, ticks) are deterministic in the baked
    seed; wall-clock, detection-share and allocation figures are
    machine-dependent by nature. *)

type point = {
  engine : string;  (** ["central"] or ["distrib"] *)
  txns : int;
  contention : string;  (** ["low"] or ["high"] *)
  entities : int;
  theta : float;
  mpl : int;
  commits : int;
  ticks : int;
  deadlocks : int;
  rollbacks : int;
  wall_seconds : float;
  commits_per_sec : float;  (** throughput, commits per wall-clock second *)
  check_seconds : float;
      (** wall-clock spent in the boolean deadlock checks — would-deadlock
          probes and cycle-membership censuses *)
  check_share : float;  (** [check_seconds /. wall_seconds]; [nan] if n/a *)
  check_calls : int;
  enumerate_seconds : float;
      (** wall-clock spent enumerating cycles for the resolver *)
  enumerate_share : float;
      (** [enumerate_seconds /. wall_seconds]; [nan] if n/a *)
  enumerate_calls : int;
  allocated_mwords : float;  (** OCaml heap words allocated, in millions *)
}

val schema_version : int
(** Version stamped into (and required of) [BENCH_scale.json]: bumped
    when a field split or rename would make old baselines unreadable. *)

val sweep : ?quick:bool -> unit -> point list
(** Run the full grid: txns ∈ \{100, 1k, 5k\} (quick: \{100, 500\}) ×
    contention ∈ \{low, high\} × engine ∈ \{central, distrib\}. Each
    point is the fastest of three identical runs — outcomes are
    deterministic in the seed, so repetition only stabilises the timing
    figures the regression gate compares. *)

val print_table : point list -> unit

(** {2 E14: the detection-policy sweep}

    One measured cell of policy × contention × detector-outage on the
    {e centralised} engine, with the starvation guard armed. The sweep
    answers the deferred-detection question: how much of eager
    detection's request-path cost does each policy recover, and what does
    that cost in blocking time (liveness counters ride along). *)

type policy_point = {
  p_policy : string;  (** {!Prb_core.Detection_policy.to_string} *)
  p_contention : string;  (** ["low"] or ["high"] *)
  p_txns : int;
  p_outage : bool;  (** ran under the detector-outage fault plan *)
  p_commits : int;
  p_ticks : int;
  p_deadlocks : int;
  p_rollbacks : int;
  p_wall_seconds : float;
  p_commits_per_sec : float;
  p_check_seconds : float;
  p_check_share : float;
  p_check_calls : int;
  p_enumerate_seconds : float;
  p_enumerate_share : float;
  p_enumerate_calls : int;
  p_detection_passes : int;  (** scheduled sweeps that ran *)
  p_watchdog_fires : int;
  p_max_blocked_ticks : int;  (** longest completed blocking episode *)
}

val sweep_policies : ?quick:bool -> unit -> policy_point list
(** Every {!Prb_core.Detection_policy.all} policy × contention ∈
    \{low, high\} × fault plan ∈ \{none, detector-outage\} at 5000 txns
    (quick: 500), each point the fastest of three runs. *)

val print_policy_table : policy_point list -> unit

val policy_speedups : policy_point list -> (policy_point * float) list
(** Each non-eager point paired with [eager_wall /. policy_wall] from the
    eager point of the same (contention, outage, txns) cell — only where
    commits are equal, so a speedup can never be bought with lost work. *)

val best_central_speedup : policy_point list -> (string * float) option
(** The largest {!policy_speedups} entry among high-contention,
    outage-free points — the figure the E14 acceptance gate checks. *)

val to_json : ?quick:bool -> ?policies:policy_point list -> point list -> string

val write_json :
  path:string -> ?quick:bool -> ?policies:policy_point list -> point list -> unit

exception Parse_error of string

val load : path:string -> point list
(** Read the points back from a file written by {!write_json} (a minimal
    parser for exactly this module's JSON; [null] floats round-trip as
    [nan]). Ignores any [policy_points] section, so baselines written
    before or after E14 load interchangeably. @raise Parse_error on
    malformed input, on a [schema_version] other than {!schema_version}
    (a versionless file is implicitly version 1), or [Sys_error] on an
    unreadable path. *)

val compare_against :
  tolerance:float -> baseline:point list -> point list -> string list * int
(** Regression gate: match each baseline point to a current point by
    (engine, txns, contention) and flag those whose [commits_per_sec]
    fell more than [tolerance] (a fraction, e.g. [0.2]) below baseline.
    Returns the failure descriptions and the number of points compared;
    baseline points with no current counterpart (and vice versa) are
    ignored, so a quick sweep can be gated against a full-grid
    baseline. *)
