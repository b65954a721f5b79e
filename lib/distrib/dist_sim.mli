(** The multi-site engine under {!Prb_sim.Sim}'s closed loop: a fixed
    multiprogramming level per run, admissions round-robin across home
    sites, and the one result record both engines report. *)

type config = {
  scheduler : Dist_scheduler.config;
  mpl : int;  (** concurrent transactions held in the system *)
}

val default_config : config

include module type of struct
  include Prb_sim.Run_result
end

val engine : Dist_scheduler.t -> Prb_sim.Sim.engine
(** Home sites are assigned round-robin in submission order. *)

val run :
  ?config:config ->
  store:Prb_storage.Store.t ->
  Prb_txn.Program.t list ->
  result
(** {!Prb_sim.Sim.drive} over {!engine}, then {!Prb_sim.Sim.result}. *)

val pp_result : Format.formatter -> result -> unit
