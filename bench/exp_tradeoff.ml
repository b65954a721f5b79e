(* E7 (the storage/progress trade-off across concurrency levels) and
   E8 (the victim-policy ablation). *)

open Common

let tradeoff () =
  header "E7 / Sections 1+4" "lost progress: partial vs. total rollback, MPL sweep";
  let n_txns = scale 200 in
  let params =
    {
      Generator.default_params with
      n_entities = 32;
      zipf_theta = 0.8;
      max_locks = 6;
      min_writes = 1;
      max_writes = 2;
    }
  in
  let seeds = if !quick then [ 3 ] else [ 3; 4; 5 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "%d txns over 32 entities, theta 0.8, ordered policy \
            (means over %d seeds)"
           n_txns (List.length seeds))
      [
        ("mpl", Table.Right);
        ("strategy", Table.Left);
        ("deadlocks", Table.Right);
        ("rollbacks", Table.Right);
        ("ops lost", Table.Right);
        ("overshoot", Table.Right);
        ("mean cost", Table.Right);
        ("wasted", Table.Right);
        ("throughput", Table.Right);
        ("peak copies", Table.Right);
      ]
  in
  List.iter
    (fun mpl ->
      List.iter
        (fun strategy ->
          let runs =
            List.map
              (fun seed -> run_sim ~mpl ~seed ~strategy ~params ~n_txns ())
              seeds
          in
          let mean get =
            List.fold_left (fun acc r -> acc +. get r) 0.0 runs
            /. float_of_int (List.length runs)
          in
          let stat get = mean (fun r -> float_of_int (get r.Sim.stats)) in
          Table.add_row table
            [
              i mpl;
              Strategy.to_string strategy;
              f2 (stat (fun s -> s.Scheduler.deadlocks));
              f2 (stat (fun s -> s.Scheduler.rollbacks));
              f2 (stat (fun s -> s.Scheduler.ops_lost));
              f2 (stat (fun s -> s.Scheduler.overshoot_ops));
              f2
                (mean (fun r ->
                     if Float.is_nan r.Sim.mean_rollback_cost then 0.0
                     else r.Sim.mean_rollback_cost));
              pct (mean (fun r -> r.Sim.wasted_fraction));
              f2 (mean (fun r -> r.Sim.throughput));
              f2 (mean (fun r -> float_of_int r.Sim.stats.peak_copies));
            ])
        Strategy.all_basic;
      Table.add_separator table)
    [ 2; 4; 8; 16 ];
  Table.print table;
  note
    "shape claimed by the paper: as concurrency (and hence deadlock\n\
     frequency) rises, remove-and-restart wastes ever more work; partial\n\
     rollback (MCS exactly, SDG nearly) caps the per-deadlock loss, at\n\
     the price of extra copies (MCS) or occasional overshoot (SDG)."

let victim_ablation () =
  header "E8 / Section 3.1" "victim policy ablation";
  let n_txns = scale 150 in
  let params =
    {
      Generator.default_params with
      n_entities = 16;
      zipf_theta = 0.9;
      max_locks = 7;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "hot workload (%d txns, sdg rollback, 150k-tick budget)" n_txns)
      [
        ("policy", Table.Left);
        ("commits", Table.Right);
        ("deadlocks", Table.Right);
        ("ops lost", Table.Right);
        ("mean cost", Table.Right);
        ("optimal cuts", Table.Right);
        ("outcome", Table.Left);
      ]
  in
  List.iter
    (fun policy ->
      let r =
        run_sim ~mpl:10 ~seed:4 ~policy ~max_ticks:150_000
          ~strategy:Strategy.Sdg ~params ~n_txns ()
      in
      let s = r.Sim.stats in
      Table.add_row table
        [
          Policy.to_string policy;
          i s.Scheduler.commits;
          i s.Scheduler.deadlocks;
          i s.Scheduler.ops_lost;
          f2 r.Sim.mean_rollback_cost;
          i s.Scheduler.optimal_resolutions;
          (if s.Scheduler.commits = n_txns then "completed" else "LIVELOCK");
        ])
    Policy.all;
  Table.print table;
  note
    "the optimising policies pay the least per deadlock, but only the\n\
     order-respecting ones (ordered, youngest) terminate unconditionally\n\
     — exactly the paper's Section 3.1 tension."

(* The locking-discipline deviation documented in DESIGN.md, made
   measurable: under the paper's availability rule, shared re-grants
   starve exclusive waiters and partial-rollback victims re-acquire past
   them — a livelock; fair queues remove it. Exclusive-only workloads are
   unaffected, which is why the figure experiments can use the paper's
   rule verbatim. *)
let discipline_ablation () =
  header "E8b / DESIGN.md deviation" "availability rule vs. fair queues";
  let n_txns = scale 150 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "%d txns, sdg rollback, ordered policy, 150k-tick budget" n_txns)
      [
        ("workload", Table.Left);
        ("discipline", Table.Left);
        ("commits", Table.Right);
        ("deadlocks", Table.Right);
        ("ops lost", Table.Right);
        ("outcome", Table.Left);
      ]
  in
  List.iter
    (fun (wname, read_fraction) ->
      List.iter
        (fun (dname, fair) ->
          let params =
            {
              Generator.default_params with
              n_entities = 16;
              zipf_theta = 0.9;
              max_locks = 8;
              read_fraction;
            }
          in
          let config =
            {
              Sim.scheduler =
                {
                  Scheduler.default_config with
                  strategy = Strategy.Sdg;
                  seed = 42;
                  max_ticks = 150_000;
                  fair_locking = fair;
                };
              mpl = 10;
            }
          in
          let r = Sim.run_generated ~config ~params ~seed:42 ~n_txns () in
          let s = r.Sim.stats in
          Table.add_row table
            [
              wname;
              dname;
              i s.Scheduler.commits;
              i s.Scheduler.deadlocks;
              i s.Scheduler.ops_lost;
              (if s.Scheduler.commits = n_txns then "completed"
               else "LIVELOCK (budget exhausted)");
            ])
        [ ("fair queues", true); ("availability rule", false) ];
      Table.add_separator table)
    [ ("exclusive only", 0.0); ("30% shared", 0.3) ];
  Table.print table;
  note
    "the paper's availability rule lets rollback victims re-acquire\n\
     shared locks past a starving exclusive waiter — mild contention\n\
     shows up as extra deadlocks and lost work; at higher contention it\n\
     degenerates into the full livelock documented in DESIGN.md. Grant\n\
     decisions coincide on exclusive-only workloads, but fair queueing\n\
     still adds waiter-to-waiter edges, so detection sees (and breaks)\n\
     cycles slightly differently there too."

(* E8c: the paper's detect-and-partially-roll-back against the classic
   alternatives — timeout aborts (no detection) and timestamp prevention
   (wound-wait / wait-die). *)
let intervention_ablation () =
  header "E8c / Section 1 context" "detection + partial rollback vs. the classics";
  let n_txns = scale 100 in
  let params =
    {
      Generator.default_params with
      n_entities = 16;
      zipf_theta = 0.9;
      max_locks = 6;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "%d txns, sdg rollback, mpl 10, 300k-tick budget"
           n_txns)
      [
        ("intervention", Table.Left);
        ("commits", Table.Right);
        ("deadlocks", Table.Right);
        ("rollbacks", Table.Right);
        ("ops lost", Table.Right);
        ("timeouts", Table.Right);
        ("preventions", Table.Right);
        ("ticks", Table.Right);
      ]
  in
  List.iter
    (fun (name, intervention) ->
      let config =
        {
          Sim.scheduler =
            {
              Scheduler.default_config with
              intervention;
              seed = 4;
              max_ticks = 300_000;
            };
          mpl = 10;
        }
      in
      let r = Sim.run_generated ~config ~params ~seed:4 ~n_txns () in
      let s = r.Sim.stats in
      Table.add_row table
        [
          name;
          i s.Scheduler.commits;
          i s.Scheduler.deadlocks;
          i s.Scheduler.rollbacks;
          i s.Scheduler.ops_lost;
          i s.Scheduler.timeouts;
          i s.Scheduler.preventions;
          i s.Scheduler.ticks;
        ])
    [
      ("detect + partial rollback", Scheduler.Detect);
      ("timeout 50", Scheduler.Timeout_abort 50);
      ("timeout 200", Scheduler.Timeout_abort 200);
      ("wound-wait", Scheduler.Wound_wait_c);
      ("wait-die", Scheduler.Wait_die_c);
    ];
  Table.print table;
  note
    "the paper's motivation made concrete: timeouts either stall the\n\
     system (long timers leave deadlocks standing) or abort spuriously\n\
     (short timers), and always restart from scratch; timestamp\n\
     prevention avoids deadlocks but preempts far more often than the\n\
     few real cycles require (preventions vs. the detect row's\n\
     deadlocks). Detection plus cost-chosen partial rollback touches the\n\
     fewest transactions for the least lost work."

(* E7b: the response-time view of the paper's introduction — an open
   system under a Poisson-like arrival process. *)
let response_time () =
  header "E7b / Section 1" "response time under offered load (open system)";
  let n_txns = scale 200 in
  let params =
    {
      Generator.default_params with
      n_entities = 32;
      zipf_theta = 0.8;
      max_locks = 6;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "%d txns arriving Poisson-like; latency in ticks (submit to \
            commit)"
           n_txns)
      [
        ("offered /kTick", Table.Right);
        ("strategy", Table.Left);
        ("commits", Table.Right);
        ("mean latency", Table.Right);
        ("p95 latency", Table.Right);
        ("deadlocks", Table.Right);
        ("ops lost", Table.Right);
      ]
  in
  List.iter
    (fun rate ->
      List.iter
        (fun strategy ->
          let store = Generator.populate params in
          let programs = Generator.generate params ~seed:8 ~n:n_txns in
          let r =
            Sim.Open.run
              ~scheduler:
                { Scheduler.default_config with strategy; seed = 8 }
              ~store ~arrivals_per_ktick:rate ~arrival_seed:8 programs
          in
          let s = r.Sim.Open.closed.Sim.stats in
          Table.add_row table
            [
              f2 rate;
              Strategy.to_string strategy;
              i s.Scheduler.commits;
              f2 r.Sim.Open.mean_latency;
              f2 r.Sim.Open.p95_latency;
              i s.Scheduler.deadlocks;
              i s.Scheduler.ops_lost;
            ])
        Strategy.all_basic;
      Table.add_separator table)
    [ 20.0; 40.0; 80.0; 160.0 ];
  Table.print table;
  note
    "the hockey stick the paper's introduction predicts: as offered load\n\
     rises, conflicts and deadlocks multiply and response times blow up;\n\
     partial rollback's smaller per-deadlock losses buy visibly lower\n\
     tail latencies near saturation."

let run () =
  tradeoff ();
  victim_ablation ();
  discipline_ablation ();
  intervention_ablation ();
  response_time ()
