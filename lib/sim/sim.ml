module Scheduler = Prb_core.Scheduler
module History = Prb_history.History

type config = { scheduler : Scheduler.config; mpl : int }

let default_config = { scheduler = Scheduler.default_config; mpl = 8 }

type engine = {
  submit : Prb_txn.Program.t -> int;
  step : unit -> bool;
  n_committed : unit -> int;
  stats : unit -> Prb_core.Run_stats.stats;
  history : History.t;
  lock_table : Prb_lock.Lock_table.t;
}

let central sched =
  {
    submit = Scheduler.submit sched;
    step = (fun () -> Scheduler.step sched);
    n_committed = (fun () -> Scheduler.n_committed sched);
    stats = (fun () -> Scheduler.stats sched);
    history = Scheduler.history sched;
    lock_table = Scheduler.lock_table sched;
  }

let drive e ~mpl programs =
  if mpl < 1 then invalid_arg "Sim.drive: mpl must be >= 1";
  let pending = ref programs and submitted = ref 0 in
  (* Keep [mpl] transactions in the system until the program list dries
     up; every non-blocked live transaction always has a pending event, so
     [step] returning false means the run is over. *)
  let rec refill () =
    match !pending with
    | p :: rest when !submitted - e.n_committed () < mpl ->
        pending := rest;
        incr submitted;
        ignore (e.submit p);
        refill ()
    | _ -> ()
  in
  refill ();
  while e.step () do
    refill ()
  done

include Run_result

let result (e : engine) programs =
  let stats = e.stats () in
  let fl = float_of_int in
  let per x y = if y = 0 then nan else fl x /. fl y in
  {
    stats;
    n_txns = List.length programs;
    throughput = per (1000 * stats.commits) stats.ticks;
    deadlock_rate = per stats.deadlocks stats.commits;
    mean_rollback_cost = per stats.ops_lost stats.rollbacks;
    wasted_fraction =
      per (stats.ops_executed - stats.ops_committed) stats.ops_executed;
    messages_per_commit = per stats.messages stats.commits;
    shipped_per_commit = per stats.shipped_copies stats.commits;
    serializable = History.serializable e.history;
    peak_copies = stats.peak_copies;
    check_calls = stats.check_calls;
    enumerate_calls = stats.enumerate_calls;
  }

let run ?(config = default_config) ~store programs =
  let e = central (Scheduler.create ~config:config.scheduler store) in
  drive e ~mpl:config.mpl programs;
  result e programs

let run_generated ?config ~params ~seed ~n_txns () =
  let store = Prb_workload.Generator.populate params in
  let programs = Prb_workload.Generator.generate params ~seed ~n:n_txns in
  run ?config ~store programs

module Open = struct
  type open_result = {
    closed : result;
    offered_rate : float;
    mean_latency : float;
    p50_latency : float;
    p95_latency : float;
    max_latency : float;
  }

  let run ?(scheduler = Scheduler.default_config) ~store ~arrivals_per_ktick
      ~arrival_seed programs =
    if arrivals_per_ktick <= 0.0 then
      invalid_arg "Sim.Open.run: arrival rate must be positive";
    let rng = Prb_util.Rng.make arrival_seed in
    let per_tick = arrivals_per_ktick /. 1000.0 in
    let sched = Scheduler.create ~config:scheduler store in
    (* exponential inter-arrival times, accumulated and rounded *)
    let clock = ref 0.0 in
    let ids =
      List.map
        (fun p ->
          let u = Float.max 1e-12 (Prb_util.Rng.float rng 1.0) in
          clock := !clock +. (-.Float.log u /. per_tick);
          Scheduler.submit_at sched ~at:(int_of_float !clock) p)
        programs
    in
    while Scheduler.step sched do
      ()
    done;
    let latencies =
      List.filter_map
        (fun id -> Option.map float_of_int (Scheduler.latency sched id))
        ids
      |> Array.of_list
    in
    let closed = result (central sched) programs in
    let pct p =
      if Array.length latencies = 0 then nan
      else Prb_util.Stats.percentile latencies p
    in
    {
      closed;
      offered_rate = arrivals_per_ktick;
      mean_latency =
        (if Array.length latencies = 0 then nan
         else
           Array.fold_left ( +. ) 0.0 latencies
           /. float_of_int (Array.length latencies));
      p50_latency = pct 50.0;
      p95_latency = pct 95.0;
      max_latency = pct 100.0;
    }

  let pp ppf r =
    Fmt.pf ppf
      "@[<v>offered: %.1f txns/kTick@,commits: %d@,latency mean %.1f, p50 \
       %.1f, p95 %.1f, max %.1f ticks@,serializable: %b@]"
      r.offered_rate r.closed.stats.Scheduler.commits r.mean_latency
      r.p50_latency r.p95_latency r.max_latency r.closed.serializable
end

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>txns: %d@,%a@,throughput: %.2f commits/kTick@,\
     deadlock rate: %.3f/txn@,mean rollback cost: %.2f ops@,\
     wasted work: %.1f%%@,serializable: %b@]"
    r.n_txns Scheduler.pp_stats r.stats r.throughput r.deadlock_rate
    r.mean_rollback_cost (100.0 *. r.wasted_fraction) r.serializable
