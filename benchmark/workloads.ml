module Scheduler = Prb_core.Scheduler
module Policy = Prb_core.Policy
module Detection_policy = Prb_core.Detection_policy
module D = Prb_distrib.Dist_scheduler
module Strategy = Prb_rollback.Strategy
module Generator = Prb_workload.Generator

type engine = Central of Scheduler.config | Distrib of D.config

(* Why each workload is here is recorded beside its name in
   BENCHMARK.json and in README.md. *)
type t = {
  name : string;
  params : Generator.params;
  n_txns : int;
  mpl : int;
  engine : engine;
}

(* MPL 16 on every workload: enough concurrent transactions for 2PL to
   deadlock on a hot set, few enough that one process on one thread
   drives them. *)
let mpl = 16

(* Far above what any workload needs; a run that reaches it has
   livelocked and its unfinished transactions count as failed. *)
let max_ticks = 10_000_000

let shape =
  {
    Generator.default_params with
    min_locks = 3;
    max_locks = 6;
    read_fraction = 0.3;
  }

let central = { Scheduler.default_config with max_ticks }

let all =
  [
    {
      name = "uniform";
      params = { shape with n_entities = 20_000; zipf_theta = 0.0 };
      n_txns = 40_000;
      mpl;
      engine = Central { central with strategy = Strategy.Sdg };
    };
    {
      name = "hotspot";
      params = { shape with n_entities = 64; zipf_theta = 0.8 };
      n_txns = 20_000;
      mpl;
      engine =
        Central
          {
            central with
            strategy = Strategy.Sdg;
            policy = Policy.Ordered_min_cost;
          };
    };
    {
      name = "shared-deferred";
      params =
        {
          shape with
          n_entities = 256;
          zipf_theta = 0.9;
          read_fraction = 0.7;
          min_locks = 4;
          max_locks = 8;
        };
      n_txns = 20_000;
      mpl;
      engine =
        Central
          {
            central with
            strategy = Strategy.Mcs;
            detection = Detection_policy.Periodic 32;
            starvation_limit = Some 8;
          };
    };
    {
      name = "distrib-hotspot";
      params = { shape with n_entities = 64; zipf_theta = 0.8 };
      n_txns = 10_000;
      mpl;
      engine = Distrib { D.default_config with n_sites = 4; max_ticks };
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let with_seed w seed =
  match w.engine with
  | Central c -> { w with engine = Central { c with seed } }
  | Distrib c -> { w with engine = Distrib { c with seed } }

let scaled w ~divisor = { w with n_txns = max w.mpl (w.n_txns / divisor) }
