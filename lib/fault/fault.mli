(** Deterministic fault plans and the injector runtime.

    The engines model a failure-free world by default; this module supplies
    the regime the paper's Section 3.3 actually lives in — sites that
    crash and recover, messages that get lost, duplicated or delayed, a
    global detector that misses rounds, and transactions that die mid-run.

    A {!plan} is pure data: every fault is either scheduled explicitly
    (site crashes, detector outages, transaction crashes) or drawn from a
    private SplitMix64 stream seeded by [fault_seed] (per-message faults).
    Given the same (scheduler seed, plan) a run is bit-for-bit replayable —
    the chaos harness ({!Chaos}) asserts exactly that.

    Faults stop at [horizon]: past it every message is delivered instantly
    and no new crash or outage begins, so a finite workload always drains
    and the end-of-run invariants are meaningful. *)

type site_crash = {
  site : int;
  at : int;  (** tick the site dies *)
  downtime : int;  (** ticks until it recovers and rebuilds its lock table *)
}

type outage = { out_from : int; out_until : int }
(** Global-detector outage window [\[out_from, out_until)]. *)

type txn_crash = {
  crash_at : int;
  victim : int;
      (** index into the live growing transactions (sorted by id) at
          [crash_at], taken modulo their count — stable under replay *)
}

type msg_faults = {
  loss : float;  (** P(a remote message vanishes) *)
  dup : float;  (** P(it is delivered twice) *)
  delay : float;  (** P(it is delayed) *)
  max_delay : int;  (** delay is uniform in [\[1, max_delay\]] ticks *)
}

type plan = {
  fault_seed : int;
  horizon : int;
  msg : msg_faults;
  site_crashes : site_crash list;
  detector_outages : outage list;
  txn_crashes : txn_crash list;
  rebuild_locks : bool;
      (** [false] deliberately skips the lock-table rebuild on site
          recovery — a broken recovery path the harness must catch *)
}

(** {1 Timeouts and backoff}

    Fixed for every plan, in ticks. *)

val request_timeout : int
(** 40: how long a requester waits for evidence its remote request arrived
    (a grant, or its presence in the queue) before retransmitting. *)

val backoff_base : int
(** 10: the first retry's backoff increment. *)

val backoff_cap : int
(** 5: the most doublings of [backoff_base] (and of [readmit_delay]). *)

val degraded_timeout : int
(** 120: while the global detector is out, a transaction blocked at least
    this long is timeout-aborted (full restart). *)

val readmit_delay : int
(** 20: re-admission delay after a transaction crash; doubles per crash of
    the same transaction, capped by [backoff_cap]. *)

val backoff : attempt:int -> int
(** Bounded exponential backoff: [backoff_base * 2^min(attempt,
    backoff_cap)], attempt 0 giving [backoff_base]. *)

(** {1 Plans} *)

val none : plan
(** The empty plan: no faults ever. Engines treat [Some none] exactly like
    [None]. *)

val is_none : plan -> bool

val random : ?n_sites:int -> seed:int -> horizon:int -> unit -> plan
(** A randomized plan drawn deterministically from [seed]: 0–2 site
    crashes (when [n_sites] > 0), 0–1 detector outages, 0–2 transaction
    crashes, and message-fault rates up to loss 0.2 / dup 0.2 / delay 0.3
    with delays up to 6 ticks. [n_sites] defaults to 0 (no site crashes —
    the centralised engine has no sites). *)

val in_outage : plan -> int -> bool
(** Is the global detector out at this tick? *)

val pp_plan : Format.formatter -> plan -> unit

(** {1 Injector runtime} *)

type t
(** A plan plus its live message-fault stream. Create one per scheduler;
    replaying a run means recreating it from the same plan. *)

val make : plan -> t
val plan : t -> plan

(** Fate of one remote message. Delays are extra ticks on top of the
    engine's unit delivery latency. *)
type delivery =
  | Deliver of int  (** arrives once, after this extra delay *)
  | Duplicate of int * int  (** arrives twice, at two delays *)
  | Lose

val roll : t -> tick:int -> delivery
(** Roll the fate of a message sent at [tick]. Past the plan's horizon
    (or under a fault-free plan) always [Deliver 0]. *)

val shipment_arrives : t -> tick:int -> bool
(** Fate of one site's waits-for shipment to the global detector: [false]
    means the detector works without that site's edges this round. *)
