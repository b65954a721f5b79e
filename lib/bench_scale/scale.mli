(** The E13 scaling and E14 detection-policy benchmarks: reproducible
    sweeps over transaction count × contention on both engines, and over
    detection policy × contention × detector outage on the centralised
    one, reported as tables and as machine-readable JSON
    ([BENCH_scale.json]) so successive changes accumulate a performance
    trajectory.

    Run by [prb bench]. Simulation outcomes (commits, deadlocks, ticks)
    are deterministic in the baked seed, and so are the allocation
    figures; wall-clock and detection-share figures are machine-dependent
    by nature. *)

type point = {
  engine : string;  (** ["central"] or ["distrib"] *)
  policy : string;  (** {!Prb_core.Detection_policy.to_string} *)
  outage : bool;  (** ran under the detector-outage fault plan *)
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
  detection_passes : int;  (** scheduled sweeps that ran *)
  watchdog_fires : int;
  max_blocked_ticks : int;  (** longest completed blocking episode *)
  allocated_mwords : float;
      (** OCaml heap words allocated, in millions, read after a full major
          collection on each side of the run *)
}

val schema_version : int
(** Version stamped into (and required of) [BENCH_scale.json]: bumped
    when a field split or rename would make old baselines unreadable. *)

val sweep : ?quick:bool -> unit -> point list
(** E13: txns ∈ \{100, 1k, 5k\} (quick: \{100, 500\}) × contention ∈
    \{low, high\} × engine ∈ \{central, distrib\}, eager detection. Each
    point is the fastest of three identical runs — outcomes are
    deterministic in the seed, so repetition only stabilises the timing
    figures the regression gate compares. *)

val sweep_policies : ?quick:bool -> unit -> point list
(** E14: every {!Prb_core.Detection_policy.all} policy × contention ∈
    \{low, high\} × fault plan ∈ \{none, detector-outage\} at 5000 txns
    (quick: 500) on the centralised engine with the starvation guard
    armed, each point the fastest of three runs. It answers the
    deferred-detection question: how much of eager detection's
    request-path cost each policy recovers, and what that costs in
    blocking time. *)

val print_table : point list -> unit
(** The E13 table. *)

val print_policy_table : point list -> unit
(** The E14 table, with each point's wall-time speedup over the eager
    point of its (contention, outage, txns) cell — shown only at equal
    commits, so a speedup can never be bought with lost work. *)

val best_central_speedup : point list -> (string * float) option
(** The largest such speedup among non-eager, high-contention,
    outage-free points — the figure the E14 acceptance gate checks. *)

val write_json :
  path:string -> ?quick:bool -> ?policies:point list -> point list -> unit
(** E13 points under ["points"], E14 points under ["policy_points"]. *)

exception Parse_error of string

type gate_point = {
  engine : string;
  txns : int;
  contention : string;
  commits_per_sec : float;
  allocated_mwords : float;
}
(** The fields of a {!point} that {!compare_against} reads. *)

val load : path:string -> gate_point list
(** Read the E13 points back from a file written by {!write_json} (a
    minimal parser for exactly this module's JSON; [null] floats
    round-trip as [nan]). Ignores any [policy_points] section, so
    baselines written before or after E14 load interchangeably.
    @raise Parse_error on malformed input, on a [schema_version] other
    than {!schema_version} (a versionless file is implicitly version 1),
    or [Sys_error] on an unreadable path. *)

val compare_against :
  tolerance:float -> baseline:gate_point list -> point list -> string list * int
(** Regression gate: match each baseline point to a current point by
    (engine, txns, contention) and flag those whose [commits_per_sec]
    fell, or whose [allocated_mwords] rose, by more than [tolerance] (a
    fraction, e.g. [0.2]). Returns the failure descriptions and the
    number of points compared; baseline points with no current
    counterpart (and vice versa) are ignored, so a quick sweep can be
    gated against a full-grid baseline. *)
