(* E10: distributed systems (Section 3.3) — detection schemes, message
   accounting and the bookkeeping-shipping overhead of partial rollback. *)

open Common
module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim

let distributed () =
  header "E10 / Section 3.3" "multi-site: messages and shipped bookkeeping";
  let n_txns = scale 120 in
  let params =
    {
      Generator.default_params with
      n_entities = 40;
      zipf_theta = 0.6;
      max_locks = 5;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "4 sites, %d txns, mpl 10, detection period 40"
           n_txns)
      [
        ("detection", Table.Left);
        ("strategy", Table.Left);
        ("commits", Table.Right);
        ("deadlocks l/g", Table.Left);
        ("wounds", Table.Right);
        ("ops lost", Table.Right);
        ("msgs/commit", Table.Right);
        ("shipped/commit", Table.Right);
      ]
  in
  List.iter
    (fun (detection, dname) ->
      List.iter
        (fun strategy ->
          let store = Generator.populate params in
          let programs = Generator.generate params ~seed:3 ~n:n_txns in
          let config =
            {
              Dist_sim.scheduler =
                {
                  D.default_config with
                  n_sites = 4;
                  detection;
                  strategy;
                  seed = 3;
                  max_ticks = 400_000;
                };
              mpl = 10;
            }
          in
          let r = Dist_sim.run ~config ~store programs in
          let s = r.Dist_sim.stats in
          Table.add_row table
            [
              dname;
              Strategy.to_string strategy;
              i s.D.commits;
              Printf.sprintf "%d/%d" s.D.local_deadlocks s.D.global_deadlocks;
              i s.D.preventions;
              i s.D.ops_lost;
              f2 r.Dist_sim.messages_per_commit;
              f2 r.Dist_sim.shipped_per_commit;
            ])
        Strategy.all_basic;
      Table.add_separator table)
    [ (D.Local_then_global 40, "local+global(40)"); (D.Wound_wait, "wound-wait") ];
  Table.print table;
  note
    "partial rollback keeps its progress advantage across sites, but its\n\
     version bookkeeping must chase moving transactions (shipped copies)\n\
     — the Section 3.3 overhead; total rollback ships nothing. Wound-wait\n\
     prevents deadlocks entirely and still benefits from rolling back to\n\
     the latest conflict-free state.";
  (* detection period sweep: staleness vs messages *)
  let table =
    Table.create
      ~title:"global-detection period sweep (sdg rollback)"
      [
        ("period", Table.Right);
        ("commits", Table.Right);
        ("global deadlocks", Table.Right);
        ("detection rounds", Table.Right);
        ("msgs/commit", Table.Right);
        ("ticks", Table.Right);
      ]
  in
  List.iter
    (fun period ->
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed:3 ~n:n_txns in
      let config =
        {
          Dist_sim.scheduler =
            {
              D.default_config with
              n_sites = 4;
              detection = D.Local_then_global period;
              strategy = Strategy.Sdg;
              seed = 3;
              max_ticks = 600_000;
            };
          mpl = 10;
        }
      in
      let r = Dist_sim.run ~config ~store programs in
      let s = r.Dist_sim.stats in
      Table.add_row table
        [
          i period;
          i s.D.commits;
          i s.D.global_deadlocks;
          i s.D.detection_passes;
          f2 r.Dist_sim.messages_per_commit;
          i s.D.ticks;
        ])
    [ 10; 40; 160; 640 ];
  Table.print table;
  note
    "rarer global detection trades messages for staleness: cross-site\n\
     deadlocks persist longer, stretching the run.";
  (* E10b: victim policy under stale (periodic) detection. *)
  let table =
    Table.create
      ~title:
        "E10b: victim policy under periodic global detection (mcs \
         rollback, period 30, 200k-tick budget)"
      [
        ("policy", Table.Left);
        ("commits", Table.Right);
        ("deadlocks", Table.Right);
        ("rollbacks", Table.Right);
        ("ops lost", Table.Right);
        ("outcome", Table.Left);
      ]
  in
  (* fixed size: this is a specific reproduction case, not a sweep *)
  let n = 30 in
  (* the exact reproduction configuration (found by the property tests):
     24 entities, theta 0.7 *)
  let params =
    {
      Generator.default_params with
      n_entities = 24;
      zipf_theta = 0.7;
      max_locks = 5;
    }
  in
  List.iter
    (fun policy ->
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed:0 ~n in
      let config =
        {
          Dist_sim.scheduler =
            {
              D.default_config with
              n_sites = 3;
              detection = D.Local_then_global 30;
              strategy = Strategy.Mcs;
              policy;
              seed = 0;
              max_ticks = 200_000;
            };
          mpl = 6;
        }
      in
      let r = Dist_sim.run ~config ~store programs in
      let s = r.Dist_sim.stats in
      Table.add_row table
        [
          Policy.to_string policy;
          i s.D.commits;
          i s.D.deadlocks;
          i s.D.rollbacks;
          i s.D.ops_lost;
          (if s.D.commits = n then "completed" else "LIVELOCK");
        ])
    [ Policy.Min_cost; Policy.Ordered_min_cost; Policy.Youngest;
      Policy.Requester ];
  Table.print table;
  note
    "the ordered policy — provably livelock-free when deadlocks are\n\
     resolved at request time — can re-victimise the same cheap\n\
     transaction round after round once detection works from stale\n\
     periodic snapshots where no meaningful \"requester\" exists:\n\
     Figure 2's mutual preemption resurrected by staleness. Pure\n\
     age-based selection (the timestamp rule of the paper's distributed\n\
     references) converges, which is why it is this engine's default;\n\
     which of the other policies survive is instance luck."

let run () = distributed ()
