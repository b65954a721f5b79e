(* Tests for Prb_sim: the closed-system driver and its derived metrics. *)

module Sim = Prb_sim.Sim
module Scheduler = Prb_core.Scheduler
module Strategy = Prb_rollback.Strategy
module Policy = Prb_core.Policy
module Generator = Prb_workload.Generator
module Scenarios = Prb_workload.Scenarios
module Store = Prb_storage.Store
module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let small_params =
  { Generator.default_params with n_entities = 16; zipf_theta = 0.7; max_locks = 5 }

(* Every run gets a tick budget about ten times what it needs and must
   commit everything within it, so a livelock fails in seconds instead
   of spinning to the default cap. *)
let budget ?(mpl = Sim.default_config.Sim.mpl) ?(scheduler = Scheduler.default_config)
    max_ticks =
  { Sim.scheduler = { scheduler with max_ticks }; mpl }

let check_all name n (r : Sim.result) =
  checki (name ^ ": all commit") n r.Sim.stats.Scheduler.commits

let test_runs_everything () =
  (* needs 782 ticks *)
  let r =
    Sim.run_generated ~config:(budget 7_800) ~params:small_params ~seed:2
      ~n_txns:60 ()
  in
  checki "all commit" 60 r.Sim.stats.Scheduler.commits;
  checkb "serializable" true r.Sim.serializable;
  checkb "throughput positive" true (r.Sim.throughput > 0.0)

let test_mpl_respected () =
  (* with mpl=1 transactions run strictly serially: no blocks at all *)
  (* needs 435 ticks *)
  let r =
    Sim.run_generated ~config:(budget ~mpl:1 4_400) ~params:small_params
      ~seed:2 ~n_txns:20 ()
  in
  checki "no blocks under mpl 1" 0 r.Sim.stats.Scheduler.blocks;
  checki "no deadlocks" 0 r.Sim.stats.Scheduler.deadlocks;
  checki "commits" 20 r.Sim.stats.Scheduler.commits

(* Both engines under the one closed loop, [submit] and [step] wrapped to
   count: before every step (so after every refill) min(mpl, programs
   left) transactions are in flight, and an admission never takes the
   count past [mpl]. *)
let test_drive_holds_mpl () =
  let n = 40 and mpl = 6 in
  let programs = Generator.generate small_params ~seed:2 ~n in
  let check name (e : Sim.engine) =
    let submitted = ref 0 in
    let in_flight () = !submitted - e.n_committed () in
    let submit p =
      checkb (name ^ ": room to admit") true (in_flight () < mpl);
      incr submitted;
      e.submit p
    in
    let step () =
      checki (name ^ ": in flight") (min mpl (n - e.n_committed ()))
        (in_flight ());
      e.step ()
    in
    Sim.drive { e with submit; step } ~mpl programs;
    checki (name ^ ": all commit") n (e.n_committed ())
  in
  let store () = Generator.populate small_params in
  (* they need 453 and 986 ticks *)
  check "central"
    (Sim.central
       (Scheduler.create
          ~config:{ Scheduler.default_config with max_ticks = 4_500 }
          (store ())));
  check "distributed"
    (Dist_sim.engine
       (D.create { D.default_config with max_ticks = 9_900 } (store ())))

let test_contention_rises_with_mpl () =
  (* mpl 2 needs 997 ticks, mpl 12 1,154 *)
  let run mpl =
    let r =
      Sim.run_generated ~config:(budget ~mpl 12_000) ~params:small_params
        ~seed:2 ~n_txns:80 ()
    in
    check_all (Printf.sprintf "mpl %d" mpl) 80 r;
    r.Sim.stats.Scheduler.blocks
  in
  checkb "mpl 12 blocks more than mpl 2" true (run 12 > run 2)

let test_wasted_fraction_sane () =
  (* needs 935 ticks *)
  let r =
    Sim.run_generated ~config:(budget 9_400) ~params:small_params ~seed:7
      ~n_txns:60 ()
  in
  check_all "seed 7" 60 r;
  checkb "wasted in [0,1)" true
    (r.Sim.wasted_fraction >= 0.0 && r.Sim.wasted_fraction < 1.0)

let test_deterministic () =
  (* needs 770 ticks *)
  let run () =
    Sim.run_generated ~config:(budget 7_700) ~params:small_params ~seed:3
      ~n_txns:50 ()
  in
  let a = run () and b = run () in
  check_all "seed 3" 50 a;
  checkb "same stats" true (a.Sim.stats = b.Sim.stats)

let test_run_explicit_programs () =
  let store = Scenarios.bank_store ~n_accounts:6 ~balance:100 in
  let programs =
    List.init 10 (fun i ->
        Scenarios.transfer
          ~name:(Printf.sprintf "t%d" i)
          ~from_acct:(i mod 6)
          ~to_acct:((i + 1) mod 6)
          ~amount:1)
  in
  (* needs 34 ticks *)
  let r = Sim.run ~config:(budget 340) ~store programs in
  checki "commits" 10 r.Sim.stats.Scheduler.commits;
  checkb "invariant" true
    (Store.Constraint.holds
       (Scenarios.balance_invariant ~n_accounts:6 ~balance:100)
       store)

let test_strategy_tradeoff_shape () =
  (* The paper's core claim at workload level: under identical contention,
     MCS never loses more progress than Total, and peak copies order the
     other way. *)
  (* each strategy needs 1,963-2,011 ticks *)
  let run strategy =
    let config =
      budget ~mpl:10
        ~scheduler:{ Scheduler.default_config with strategy; seed = 1 }
        20_000
    in
    Sim.run_generated ~config
      ~params:{ small_params with zipf_theta = 0.9; min_writes = 2; max_writes = 3 }
      ~seed:1 ~n_txns:100 ()
  in
  let total = run Strategy.Total and mcs = run Strategy.Mcs and sdg = run Strategy.Sdg in
  checki "total commits" 100 total.Sim.stats.Scheduler.commits;
  checki "mcs commits" 100 mcs.Sim.stats.Scheduler.commits;
  checki "sdg commits" 100 sdg.Sim.stats.Scheduler.commits;
  let copies r = r.Sim.stats.peak_copies in
  checkb "copies: mcs >= sdg" true (copies mcs >= copies sdg);
  checkb "copies: mcs >= total" true (copies mcs >= copies total)

(* --- open-system driver --- *)

(* An open-system run on a tick budget (the closed runs' rule above). *)
let open_run ~max_ticks ~store ~arrivals_per_ktick ~arrival_seed programs =
  Sim.Open.run
    ~scheduler:{ Scheduler.default_config with max_ticks }
    ~store ~arrivals_per_ktick ~arrival_seed programs

let test_open_runs_and_measures () =
  let store = Generator.populate small_params in
  let programs = Generator.generate small_params ~seed:5 ~n:40 in
  (* needs 587 ticks *)
  let r =
    open_run ~max_ticks:5_900 ~store ~arrivals_per_ktick:50.0 ~arrival_seed:5
      programs
  in
  checki "all commit" 40 r.Sim.Open.closed.Sim.stats.Scheduler.commits;
  checkb "latencies positive" true (r.Sim.Open.mean_latency > 0.0);
  checkb "p95 >= p50" true (r.Sim.Open.p95_latency >= r.Sim.Open.p50_latency);
  checkb "max >= p95" true (r.Sim.Open.max_latency >= r.Sim.Open.p95_latency);
  checkb "serializable" true r.Sim.Open.closed.Sim.serializable

let test_open_latency_grows_with_load () =
  (* rate 200 needs 2,107 ticks, rate 10 4,909 *)
  let run rate =
    let store = Generator.populate small_params in
    let programs = Generator.generate small_params ~seed:5 ~n:80 in
    let r =
      open_run ~max_ticks:49_000 ~store ~arrivals_per_ktick:rate
        ~arrival_seed:5 programs
    in
    check_all (Printf.sprintf "rate %g" rate) 80 r.Sim.Open.closed;
    r.Sim.Open.mean_latency
  in
  checkb "heavier load, slower responses" true (run 200.0 > run 10.0)

let test_open_light_load_is_uncontended () =
  (* arrivals sparse enough (mean gap 5000 ticks vs ~20-op programs) that
     transactions effectively run alone: latency ~ own execution time *)
  let store = Generator.populate small_params in
  let programs = Generator.generate small_params ~seed:6 ~n:20 in
  (* needs 88,484 ticks, almost all of them waiting for arrivals *)
  let r =
    open_run ~max_ticks:885_000 ~store ~arrivals_per_ktick:0.2
      ~arrival_seed:7 programs
  in
  check_all "sparse arrivals" 20 r.Sim.Open.closed;
  checki "no blocks" 0 r.Sim.Open.closed.Sim.stats.Scheduler.blocks;
  checki "no deadlocks" 0 r.Sim.Open.closed.Sim.stats.Scheduler.deadlocks;
  checkb "latency = own execution time" true (r.Sim.Open.max_latency < 40.0)

let test_open_deterministic () =
  let run () =
    let store = Generator.populate small_params in
    let programs = Generator.generate small_params ~seed:7 ~n:30 in
    (* needs 454 ticks *)
    let r =
      open_run ~max_ticks:4_500 ~store ~arrivals_per_ktick:60.0
        ~arrival_seed:7 programs
    in
    check_all "seed 7" 30 r.Sim.Open.closed;
    (r.Sim.Open.mean_latency, r.Sim.Open.closed.Sim.stats)
  in
  checkb "identical" true (run () = run ())

let test_open_bad_rate () =
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Sim.Open.run: arrival rate must be positive")
    (fun () ->
      ignore
        (Sim.Open.run ~store:(Store.create ()) ~arrivals_per_ktick:0.0
           ~arrival_seed:1 []))

let test_bad_mpl_rejected () =
  let err = Invalid_argument "Sim.drive: mpl must be >= 1" in
  Alcotest.check_raises "central mpl 0" err (fun () ->
      ignore (Sim.run ~config:{ Sim.default_config with mpl = 0 } ~store:(Store.create ()) []));
  Alcotest.check_raises "distributed mpl 0" err (fun () ->
      ignore
        (Dist_sim.run
           ~config:{ Dist_sim.default_config with mpl = 0 }
           ~store:(Store.create ()) []))

let () =
  Alcotest.run "prb_sim"
    [
      ( "driver",
        [
          Alcotest.test_case "runs everything" `Quick test_runs_everything;
          Alcotest.test_case "mpl 1 is serial" `Quick test_mpl_respected;
          Alcotest.test_case "drive holds mpl" `Quick test_drive_holds_mpl;
          Alcotest.test_case "contention grows with mpl" `Quick
            test_contention_rises_with_mpl;
          Alcotest.test_case "wasted fraction sane" `Quick test_wasted_fraction_sane;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "explicit programs" `Quick test_run_explicit_programs;
          Alcotest.test_case "strategy trade-off shape" `Slow
            test_strategy_tradeoff_shape;
          Alcotest.test_case "bad mpl" `Quick test_bad_mpl_rejected;
        ] );
      ( "scale",
        [
          Alcotest.test_case "1000 transactions at mpl 20" `Slow
            (fun () ->
              let params =
                {
                  Generator.default_params with
                  n_entities = 128;
                  zipf_theta = 0.6;
                  max_locks = 6;
                }
              in
              (* needs 7,637 ticks *)
              let config = budget ~mpl:20 76_000 in
              let r =
                Sim.run_generated ~config ~params ~seed:1 ~n_txns:1000 ()
              in
              checki "all commit" 1000 r.Sim.stats.Scheduler.commits;
              checkb "serializable" true r.Sim.serializable;
              checkb "deadlocks occurred and were survived" true
                (r.Sim.stats.Scheduler.deadlocks > 0));
        ] );
      ( "open system",
        [
          Alcotest.test_case "runs and measures" `Quick test_open_runs_and_measures;
          Alcotest.test_case "latency grows with load" `Quick
            test_open_latency_grows_with_load;
          Alcotest.test_case "light load uncontended" `Quick
            test_open_light_load_is_uncontended;
          Alcotest.test_case "deterministic" `Quick test_open_deterministic;
          Alcotest.test_case "bad rate" `Quick test_open_bad_rate;
        ] );
    ]
