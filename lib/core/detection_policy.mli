(** When to look for deadlocks — the detection-scheduling axis that
    Section 3 of the paper leaves implicit (its scheduler detects at every
    blocked request) and that "On Optimal Deadlock Detection Scheduling"
    (Ling, Chen & Chiang) optimises explicitly.

    Eager detection runs a reachability check on every blocked request.
    The deferred policies below detect {e less often}, trading prompt
    resolution for a request path with no check and fewer, batched
    resolution rounds (experiment E14 measures what that buys).
    Deferral admits {e multi-cycle} deadlocks (several cycles alive at
    once, not all through one requester), which is exactly the regime the
    paper's Section 3.2 minimum-cost vertex cut was built for — the
    scheduler routes deferred resolutions through {!Prb_graph.Cutset}.

    Every policy is made safe by two scheduler-level nets (DESIGN.md
    Section 11): a {e stall watchdog} in the central engine — if any
    transaction has been blocked longer than {!stall_bound} with no
    detection pass since it blocked, a full sweep is forced, so the engine
    can be slow but never stuck (the distributed detector's firing chain
    runs a round at every healthy firing anyway) — and a {e starvation
    guard} — a transaction rolled back at least [starvation_limit] times
    becomes immune to victim selection, bounding the repeated-victim
    livelock that Figure 2 otherwise only caps with [max_ticks]. *)

type t =
  | Eager
      (** detect at every blocked request — the paper's scheme and the
          historical default; byte-identical to the pre-policy engine *)
  | Periodic of int
      (** a full detection sweep every [n] ticks; blocked requests pay
          nothing. An experiment override of [Adaptive]'s cadence *)
  | Adaptive
      (** a sweep cadence tuned online to the observed deadlock-arrival
          rate (after Ling et al.): a sweep that finds deadlocks halves
          the interval, two consecutive empty sweeps double it, clamped to
          8..512 ticks, starting at 64 *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> t option
(** Accepts [eager], [periodic:N] (N > 0) and [adaptive]. *)

val check : t -> unit
(** @raise Invalid_argument on [Periodic n] with [n < 1], whose passes
    would re-arm at the current tick forever. Both engines' [create] call
    it. *)

val is_eager : t -> bool

val stall_bound : t -> int
(** Watchdog bound in ticks: blocked longer than this with no detection
    pass since blocking forces a full sweep. 0 for [Eager] (inline
    detection cannot stall). *)

val initial_interval : t -> int
(** First scheduled pass delay; 0 for [Eager]. *)

(** The [Adaptive] cadence. The engine core holds one per run and adapts
    it after each scheduled pass ([Engine.scheduled_pass]). *)
type cadence = {
  mutable interval : int;  (** ticks until the next pass *)
  mutable quiet : int;  (** consecutive passes that found nothing *)
}

val cadence : int -> cadence
(** A cadence starting at the given interval. *)

val adapt : cadence -> found:bool -> unit
(** After a pass: one that found deadlocks halves the interval, two
    consecutive empty ones double it, clamped to 8..512 ticks. *)

val all : t list
(** Representative instances of every policy, for sweeps and matrices. *)

val all_deferred : t list
(** [all] without [Eager]. *)
