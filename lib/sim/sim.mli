(** The closed-system driver for both engines: keep a fixed
    multiprogramming level (MPL) of concurrent transactions, admit the
    next program whenever one commits, and reduce a finished run to the
    derived metrics the experiments report. *)

type config = {
  scheduler : Prb_core.Scheduler.config;
  mpl : int;  (** concurrent transactions held in the system *)
}

val default_config : config

(** One engine as the closed loop sees it: what {!drive} calls and what a
    caller reads once the run is over. {!central} and
    [Dist_sim.engine] build one over each scheduler; a caller that needs
    more wraps a field (a [submit] that passes a copy allocation, a
    [step] that reads mid-run state). *)
type engine = {
  submit : Prb_txn.Program.t -> int;  (** admit a program; its txn id *)
  step : unit -> bool;  (** one event; [false] once the run is over *)
  n_committed : unit -> int;
  stats : unit -> Prb_core.Run_stats.stats;
  history : Prb_history.History.t;  (** the certifier; live view *)
  lock_table : Prb_lock.Lock_table.t;  (** live view — do not mutate *)
}

val central : Prb_core.Scheduler.t -> engine

val drive : engine -> mpl:int -> Prb_txn.Program.t list -> unit
(** The closed loop: keep [mpl] transactions admitted, in list order,
    admit the next program whenever one commits, and step until the
    engine reports the run over (everything committed, or its tick
    limit). @raise Invalid_argument when [mpl < 1]. *)

include module type of struct
  include Run_result
end

val result : engine -> Prb_txn.Program.t list -> result
(** The derived metrics of a finished run of [programs]. *)

val run :
  ?config:config ->
  store:Prb_storage.Store.t ->
  Prb_txn.Program.t list ->
  result
(** Run all programs to commit (or until the scheduler's tick limit).
    Deterministic in the scheduler seed. *)

val run_generated :
  ?config:config ->
  params:Prb_workload.Generator.params ->
  seed:int ->
  n_txns:int ->
  unit ->
  result
(** Convenience: populate a store from [params], generate [n_txns]
    programs and {!run} them. *)

val pp_result : Format.formatter -> result -> unit

(** Open-system runs: transactions arrive by a Poisson-like process
    instead of being held at a fixed multiprogramming level — the
    response-time view of the paper's introduction. *)
module Open : sig
  type open_result = {
    closed : result;  (** the underlying run and its metrics *)
    offered_rate : float;  (** requested arrivals per 1000 ticks *)
    mean_latency : float;  (** submit-to-commit ticks, committed txns *)
    p50_latency : float;
    p95_latency : float;
    max_latency : float;
  }

  val run :
    ?scheduler:Prb_core.Scheduler.config ->
    store:Prb_storage.Store.t ->
    arrivals_per_ktick:float ->
    arrival_seed:int ->
    Prb_txn.Program.t list ->
    open_result
  (** Submit the programs with exponential(ish) inter-arrival times drawn
      from [arrival_seed] at the given offered load, run to completion,
      and report latency percentiles. Deterministic. *)

  val pp : Format.formatter -> open_result -> unit
end
