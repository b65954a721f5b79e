module D = Dist_scheduler
module Sim = Prb_sim.Sim

type config = { scheduler : D.config; mpl : int }

let default_config = { scheduler = D.default_config; mpl = 8 }

include Prb_sim.Run_result

let engine d =
  let n_sites = (D.config d).D.n_sites and submitted = ref 0 in
  {
    Sim.submit =
      (fun p ->
        let home = !submitted mod n_sites in
        incr submitted;
        D.submit d ~home p);
    step = (fun () -> D.step d);
    n_committed = (fun () -> D.n_committed d);
    stats = (fun () -> D.stats d);
    history = D.history d;
    lock_table = D.lock_table d;
  }

let run ?(config = default_config) ~store programs =
  let e = engine (D.create config.scheduler store) in
  Sim.drive e ~mpl:config.mpl programs;
  Sim.result e programs

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>txns: %d@,%a@,throughput: %.2f commits/kTick@,\
     messages/commit: %.1f@,shipped copies/commit: %.1f@,\
     mean rollback cost: %.2f@,serializable: %b@]"
    r.n_txns D.pp_stats r.stats r.throughput r.messages_per_commit
    r.shipped_per_commit r.mean_rollback_cost r.serializable
