(* E3's note on the Section 3.2 cut: which deadlock rounds max flow
   decides without enumerating their cycles (DESIGN.md Section 16, "The
   cut by max-flow"). Each of the repository benchmark's four workloads
   (benchmark/workloads.ml, restated here with the same shape, engine and
   size) runs once at seed 11 through the closed loop, and the engines'
   own counters split the rounds flow looked at: truncated (a cap would
   cut the enumeration short, or a cycle avoids the requester), tied or
   over nine candidates, and decided. Rounds of a policy that never
   comes out a cut policy (the distributed engine's [Youngest]) are not
   looked at. *)

open Common
module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim
module Detection_policy = Prb_core.Detection_policy

type engine = Central of Scheduler.config | Distrib of D.config

let shape =
  { Generator.default_params with min_locks = 3; max_locks = 6; read_fraction = 0.3 }

let central = { Scheduler.default_config with max_ticks = 10_000_000 }

let workloads =
  [
    ( "uniform",
      { shape with n_entities = 20_000; zipf_theta = 0.0 },
      40_000,
      Central { central with strategy = Strategy.Sdg } );
    ( "hotspot",
      { shape with n_entities = 64; zipf_theta = 0.8 },
      20_000,
      Central
        { central with strategy = Strategy.Sdg; policy = Policy.Ordered_min_cost }
    );
    ( "shared-deferred",
      {
        shape with
        n_entities = 256;
        zipf_theta = 0.9;
        read_fraction = 0.7;
        min_locks = 4;
        max_locks = 8;
      },
      20_000,
      Central
        {
          central with
          strategy = Strategy.Mcs;
          detection = Detection_policy.Periodic 32;
          starvation_limit = Some 8;
        } );
    ( "distrib-hotspot",
      { shape with n_entities = 64; zipf_theta = 0.8 },
      10_000,
      Distrib { D.default_config with n_sites = 4; max_ticks = 10_000_000 } );
  ]

let run () =
  header "E3+FLOW" "deadlock rounds max flow decides (benchmark workloads)";
  let seed = 11 in
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("commits", Table.Right);
        ("rounds", Table.Right);
        ("truncated", Table.Right);
        ("tied or >9", Table.Right);
        ("flow-decided", Table.Right);
        ("share", Table.Right);
      ]
  in
  List.iter
    (fun (name, params, n, engine) ->
      let n = if !quick then n / 10 else n in
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed ~n in
      let s =
        match engine with
        | Central c ->
            let e = Sim.central (Scheduler.create ~config:{ c with seed } store) in
            Sim.drive e ~mpl:16 programs;
            e.stats ()
        | Distrib c ->
            let e = Dist_sim.engine (D.create { c with seed } store) in
            Sim.drive e ~mpl:16 programs;
            e.stats ()
      in
      Table.add_row t
        [
          name;
          i s.commits;
          i s.deadlocks;
          i s.flow_incomplete;
          i s.flow_tied;
          i s.flow_decided;
          (if s.deadlocks = 0 then "-"
           else pct (float_of_int s.flow_decided /. float_of_int s.deadlocks));
        ])
    workloads;
  Table.print t;
  note
    "Rounds are resolution rounds (deadlocks). Every decided round picks \
     what enumeration and branch-and-bound would: test_resolver's \"flow \
     decision = enumerated decision\" checks it."
