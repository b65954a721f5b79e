(** The derived metrics of one closed-loop run, one record for both
    engines (DESIGN.md Section 15), built by {!Sim.result} from an engine
    once {!Sim.drive} has run it. {!Sim} and [Dist_sim] re-export the
    type, as the schedulers re-export {!Prb_core.Run_stats}. The central
    engine's message ratios read 0. *)

type result = {
  stats : Prb_core.Run_stats.stats;
  n_txns : int;
  throughput : float;  (** commits per 1000 ticks *)
  deadlock_rate : float;  (** deadlock resolutions per committed txn *)
  mean_rollback_cost : float;
      (** ops lost per rollback event; [nan] when no rollbacks *)
  wasted_fraction : float;
      (** (ops executed - net committed progress) / ops executed *)
  messages_per_commit : float;
  shipped_per_commit : float;  (** shipped bookkeeping copies per commit *)
  serializable : bool;
  check_calls : int;  (** boolean deadlock checks run *)
  enumerate_calls : int;  (** cycle enumerations run *)
}
