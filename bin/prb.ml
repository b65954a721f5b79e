(* prb — command-line driver for the partial-rollback concurrency control.

   Subcommands:
     prb sim      run a synthetic workload through the centralised engine
     prb distrib  run it through the multi-site engine
     prb sweep    compare the rollback strategies on one workload
*)

open Cmdliner

module Strategy = Prb_rollback.Strategy
module Policy = Prb_core.Policy
module Scheduler = Prb_core.Scheduler
module Generator = Prb_workload.Generator
module Sim = Prb_sim.Sim
module D = Prb_distrib.Dist_scheduler
module Table = Prb_util.Table

(* --- Shared options -------------------------------------------------- *)

let strategy_conv =
  let parse s =
    match Strategy.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Strategy.to_string s))

let policy_conv =
  let parse s =
    match Policy.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Policy.to_string p))

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Strategy.Sdg
    & info [ "strategy" ] ~docv:"STRAT"
        ~doc:"Rollback strategy: total, mcs, sdg or sdg+K.")

(* [--policy], defaulting to the running engine's own default. *)
let policy_arg ?(doc = "") default =
  Arg.(
    value & opt policy_conv default
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          ("Victim policy: min-cost, ordered, youngest, requester or random."
          ^ doc))

let central_policy_arg = policy_arg Scheduler.default_config.Scheduler.policy

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* [conv] narrowed to the values [ok] accepts, [what] naming them: sizes
   are checked where they are parsed, so a bad one is a usage error (exit
   124) instead of an exception from inside a run. *)
let checked conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive = checked Arg.int (fun n -> n > 0) "a positive integer"

let txns_arg =
  Arg.(
    value & opt positive 200
    & info [ "txns"; "n" ] ~docv:"N" ~doc:"Transactions to run.")

let mpl_arg =
  Arg.(
    value & opt positive 8
    & info [ "mpl" ] ~docv:"K" ~doc:"Multiprogramming level (concurrency).")

let entities_arg =
  Arg.(
    value & opt positive 64
    & info [ "entities" ] ~docv:"N" ~doc:"Database size (entities).")

let theta_arg =
  Arg.(
    value
    & opt
        (checked float
           (fun t -> Float.is_finite t && t >= 0.0)
           "a finite number >= 0")
        0.6
    & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew (0 = uniform).")

let read_frac_arg =
  Arg.(
    value
    & opt
        (checked float (fun f -> 0.0 <= f && f <= 1.0) "a fraction in [0, 1]")
        0.3
    & info [ "reads" ] ~docv:"F" ~doc:"Fraction of locks that are shared.")

let locks_arg =
  Arg.(
    value
    & opt
        (checked
           (pair ~sep:':' int int)
           (fun (lo, hi) -> 1 <= lo && lo <= hi)
           "MIN:MAX with 1 <= MIN <= MAX")
        (3, 6)
    & info [ "locks" ] ~docv:"MIN:MAX"
        ~doc:"Locks per transaction, at most $(b,--entities).")

let clustering_arg =
  Arg.(
    value
    & opt
        (checked float (fun c -> 0.0 <= c && c <= 1.0) "a probability in [0, 1]")
        0.5
    & info [ "clustering" ] ~docv:"C"
        ~doc:"Probability a write lands right after its entity's lock.")

let three_phase_arg =
  Arg.(
    value & flag
    & info [ "three-phase" ]
        ~doc:"Restructure transactions as acquire/update/release.")

let max_ticks_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "max-ticks" ] ~docv:"T" ~doc:"Simulation tick budget.")

let intervention_conv =
  let parse s =
    match s with
    | "detect" -> Ok Scheduler.Detect
    | "wound-wait" -> Ok Scheduler.Wound_wait_c
    | "wait-die" -> Ok Scheduler.Wait_die_c
    | _ ->
        let prefix = "timeout:" in
        let lp = String.length prefix in
        if String.length s > lp && String.sub s 0 lp = prefix then
          match int_of_string_opt (String.sub s lp (String.length s - lp)) with
          | Some n when n > 0 -> Ok (Scheduler.Timeout_abort n)
          | Some _ | None -> Error (`Msg "timeout wants a positive tick count")
        else Error (`Msg (Printf.sprintf "unknown intervention %S" s))
  in
  let print ppf = function
    | Scheduler.Detect -> Fmt.string ppf "detect"
    | Scheduler.Timeout_abort n -> Fmt.pf ppf "timeout:%d" n
    | Scheduler.Wound_wait_c -> Fmt.string ppf "wound-wait"
    | Scheduler.Wait_die_c -> Fmt.string ppf "wait-die"
  in
  Arg.conv (parse, print)

let intervention_arg =
  Arg.(
    value
    & opt intervention_conv Scheduler.Detect
    & info [ "intervention" ] ~docv:"MODE"
        ~doc:
          "Deadlock handling: $(b,detect) (the paper), $(b,timeout:N), \
           $(b,wound-wait) or $(b,wait-die).")

let detection_policy_conv =
  let module DP = Prb_core.Detection_policy in
  let parse s =
    match DP.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown detection policy %S" s))
  in
  Arg.conv (parse, DP.pp)

let detection_policy_doc =
  "When to run deadlock detection: $(b,eager) (at every blocked request), \
   $(b,adaptive) (a sweep whose period tracks the deadlock-arrival rate) \
   or $(b,periodic:N) (a sweep every N ticks). Deferred policies resolve \
   in batches, with victim backoff and escalation to a full restart."

let detection_policy_arg ~names =
  let module DP = Prb_core.Detection_policy in
  Arg.(
    value
    & opt detection_policy_conv DP.Eager
    & info names ~docv:"POLICY" ~doc:detection_policy_doc)

let starvation_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "starvation" ] ~docv:"K"
        ~doc:
          "Starvation guard: a transaction rolled back $(docv) times \
           becomes immune to victim selection (overridden only when a \
           cycle offers nobody else). Off by default.")

(* The generated workload. A transaction locks distinct entities, so
   MAX above --entities is a usage error naming both flags. *)
let params_arg ~clustering ~three_phase =
  let make entities theta reads (min_locks, max_locks) clustering three_phase
      =
    if max_locks > entities then
      `Error
        ( true,
          Printf.sprintf
            "--locks MAX (%d) exceeds --entities (%d): a transaction locks \
             distinct entities"
            max_locks entities )
    else
      `Ok
        {
          Generator.default_params with
          n_entities = entities;
          zipf_theta = theta;
          read_fraction = reads;
          min_locks;
          max_locks;
          clustering;
          three_phase;
        }
  in
  Term.(
    ret
      (const make $ entities_arg $ theta_arg $ read_frac_arg $ locks_arg
     $ clustering $ three_phase))

(* --- prb sim ---------------------------------------------------------- *)

let run_sim strategy policy intervention detection starvation_limit seed txns
    mpl params max_ticks =
  let config =
    {
      Sim.scheduler =
        {
          Scheduler.default_config with
          strategy;
          policy;
          intervention;
          detection;
          starvation_limit;
          seed;
          max_ticks;
        };
      mpl;
    }
  in
  let result = Sim.run_generated ~config ~params ~seed ~n_txns:txns () in
  Fmt.pr "%a@." Sim.pp_result result;
  if result.Sim.stats.Scheduler.commits < txns then (
    Fmt.epr "warning: only %d/%d transactions committed (tick budget?)@."
      result.Sim.stats.Scheduler.commits txns;
    1)
  else 0

let sim_cmd =
  let doc = "run a synthetic workload through the centralised engine" in
  Cmd.v
    (Cmd.info "sim" ~doc)
    Term.(
      const run_sim $ strategy_arg $ central_policy_arg $ intervention_arg
      $ detection_policy_arg ~names:[ "detection" ]
      $ starvation_arg $ seed_arg $ txns_arg $ mpl_arg
      $ params_arg ~clustering:clustering_arg ~three_phase:three_phase_arg
      $ max_ticks_arg)

(* --- prb sweep -------------------------------------------------------- *)

let run_sweep policy seed txns mpl params max_ticks =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "strategy sweep (policy=%s, mpl=%d, txns=%d, theta=%.2f)"
           (Policy.to_string policy) mpl txns params.Generator.zipf_theta)
      [
        ("strategy", Table.Left);
        ("commits", Table.Right);
        ("deadlocks", Table.Right);
        ("rollbacks", Table.Right);
        ("ops lost", Table.Right);
        ("mean cost", Table.Right);
        ("wasted", Table.Right);
        ("peak copies", Table.Right);
        ("throughput", Table.Right);
      ]
  in
  List.iter
    (fun strategy ->
      let config =
        {
          Sim.scheduler =
            { Scheduler.default_config with strategy; policy; seed; max_ticks };
          mpl;
        }
      in
      let r = Sim.run_generated ~config ~params ~seed ~n_txns:txns () in
      let s = r.Sim.stats in
      Table.add_row table
        [
          Strategy.to_string strategy;
          Table.cell_int s.Scheduler.commits;
          Table.cell_int s.Scheduler.deadlocks;
          Table.cell_int s.Scheduler.rollbacks;
          Table.cell_int s.Scheduler.ops_lost;
          Table.cell_float r.Sim.mean_rollback_cost;
          Table.cell_pct r.Sim.wasted_fraction;
          Table.cell_int r.Sim.peak_copies;
          Table.cell_float r.Sim.throughput;
        ])
    (Strategy.all_basic @ [ Strategy.Sdg_k 2 ]);
  Table.print table;
  0

let sweep_cmd =
  let doc = "compare rollback strategies on one workload" in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const run_sweep $ central_policy_arg $ seed_arg $ txns_arg $ mpl_arg
      $ params_arg ~clustering:clustering_arg ~three_phase:three_phase_arg
      $ max_ticks_arg)

(* --- prb distrib ------------------------------------------------------ *)

let sites_arg =
  Arg.(
    value & opt positive 4 & info [ "sites" ] ~docv:"N" ~doc:"Number of sites.")

let detection_arg =
  let parse s =
    if s = "wound-wait" then Ok D.Wound_wait
    else
      match int_of_string_opt s with
      | Some p when p > 0 -> Ok (D.Local_then_global p)
      | Some _ | None ->
          Error
            (`Msg "expected a positive detection period or \"wound-wait\"")
  in
  let print ppf = function
    | D.Wound_wait -> Fmt.string ppf "wound-wait"
    | D.Local_then_global p -> Fmt.pf ppf "%d" p
  in
  Arg.(
    value
    & opt (conv (parse, print)) (D.Local_then_global 50)
    & info [ "detection" ] ~docv:"MODE"
        ~doc:
          "Global-deadlock handling: a detection period in ticks, or \
           $(b,wound-wait).")

let run_distrib strategy policy seed txns mpl sites detection detection_policy
    starvation_limit params max_ticks =
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed ~n:txns in
  let config =
    {
      Prb_distrib.Dist_sim.scheduler =
        {
          D.default_config with
          n_sites = sites;
          detection;
          detection_policy;
          starvation_limit;
          strategy;
          policy;
          seed;
          max_ticks;
        };
      mpl;
    }
  in
  let result = Prb_distrib.Dist_sim.run ~config ~store programs in
  Fmt.pr "%a@." Prb_distrib.Dist_sim.pp_result result;
  if result.Prb_distrib.Dist_sim.stats.D.commits < txns then 1 else 0

let distrib_policy_arg =
  policy_arg D.default_config.D.policy
    ~doc:
      " The multi-site default is youngest: cost-based policies \
       re-victimise the same transaction from stale global snapshots \
       (EXPERIMENTS E10b)."

let distrib_cmd =
  let doc = "run a workload through the multi-site engine" in
  Cmd.v
    (Cmd.info "distrib" ~doc)
    Term.(
      const run_distrib $ strategy_arg $ distrib_policy_arg $ seed_arg
      $ txns_arg $ mpl_arg $ sites_arg $ detection_arg
      $ detection_policy_arg ~names:[ "detection-policy" ]
      $ starvation_arg
      $ params_arg ~clustering:(Term.const 0.5)
          ~three_phase:(Term.const false)
      $ max_ticks_arg)

(* --- prb run: execute transactions from a file ------------------------ *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Transactions file (see prb.txn syntax).")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let initial_value_arg =
  Arg.(
    value & opt int 100
    & info [ "initial" ] ~docv:"N"
        ~doc:"Initial integer value for every referenced entity.")

let entities_of_programs programs =
  List.concat_map
    (fun p ->
      Array.to_list p.Prb_txn.Program.ops
      |> List.filter_map (function
           | Prb_txn.Program.Lock (_, e) -> Some e
           | _ -> None))
    programs
  |> List.sort_uniq compare

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ]
        ~doc:"Trace grants, blocks, deadlocks and rollbacks as they happen.")

let setup_logging verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then Logs.set_level (Some Logs.Debug) else Logs.set_level None

let run_file verbose strategy policy seed max_ticks initial path =
  setup_logging verbose;
  match Prb_txn.Parser.parse_many (read_file path) with
  | Error e ->
      Fmt.epr "%s: %a@." path Prb_txn.Parser.pp_error e;
      1
  | Ok [] ->
      Fmt.epr "%s: no transactions@." path;
      1
  | Ok programs -> (
      let invalid =
        List.filter_map
          (fun p ->
            match Prb_txn.Program.validate p with
            | Ok () -> None
            | Error vs -> Some (p.Prb_txn.Program.name, vs))
          programs
      in
      match invalid with
      | (name, (op, v) :: _) :: _ ->
          Fmt.epr "%s: transaction %s: op %d: %a@." path name op
            Prb_txn.Program.pp_violation v;
          1
      | _ ->
          let store =
            Prb_storage.Store.of_list
              (List.map
                 (fun e -> (e, Prb_storage.Value.int initial))
                 (entities_of_programs programs))
          in
          Fmt.pr "initial state:@.";
          List.iter
            (fun (e, v) -> Fmt.pr "  %s = %a@." e Prb_storage.Value.pp v)
            (Prb_storage.Store.snapshot store);
          let config =
            { Scheduler.default_config with strategy; policy; seed; max_ticks }
          in
          let sched = Scheduler.create ~config store in
          Scheduler.set_deadlock_hook sched (fun ~requester ~cycles ~decision ->
              Fmt.pr "deadlock: T%d closed %d cycle(s); victims: %a@."
                requester (List.length cycles)
                Fmt.(
                  list ~sep:(any "; ") (fun ppf (v, es) ->
                      pf ppf "T%d releases {%a}" v
                        (list ~sep:(any ",") string)
                        es))
                decision.Prb_core.Resolver.victims);
          let ids =
            List.map
              (fun p ->
                let id = Scheduler.submit sched p in
                Fmt.pr "submitted T%d = %s@." id p.Prb_txn.Program.name;
                id)
              programs
          in
          ignore ids;
          Scheduler.run sched;
          Fmt.pr "@[<v>--- finished ---@,%a@]@." Scheduler.pp_stats
            (Scheduler.stats sched);
          Fmt.pr "final state:@.";
          List.iter
            (fun (e, v) -> Fmt.pr "  %s = %a@." e Prb_storage.Value.pp v)
            (Prb_storage.Store.snapshot store);
          Fmt.pr "serializable: %b@."
            (Prb_history.History.serializable (Scheduler.history sched));
          if Scheduler.all_committed sched then 0 else 1)

let run_cmd =
  let doc = "execute a file of transactions and watch deadlock removal" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run_file $ verbose_arg $ strategy_arg $ central_policy_arg $ seed_arg
      $ max_ticks_arg $ initial_value_arg $ file_arg)

(* --- prb analyze: structure analysis of transactions ------------------ *)

let dot_arg =
  Arg.(
    value & flag
    & info [ "dot" ]
        ~doc:"Also print each transaction's state-dependency graph as DOT.")

let analyze_file dot path =
  match Prb_txn.Parser.parse_many (read_file path) with
  | Error e ->
      Fmt.epr "%s: %a@." path Prb_txn.Parser.pp_error e;
      1
  | Ok programs ->
      let table =
        Table.create ~title:"single-copy (SDG) rollback friendliness"
          [
            ("transaction", Table.Left);
            ("locks", Table.Right);
            ("damage span", Table.Right);
            ("well-defined", Table.Left);
            ("three-phase", Table.Left);
            ("after restructuring", Table.Left);
          ]
      in
      List.iter
        (fun p ->
          let module P = Prb_txn.Program in
          let module S = Prb_rollback.Sdg_view in
          let wd q =
            Printf.sprintf "%d/%d"
              (List.length (S.well_defined_states q))
              (P.n_locks q + 1)
          in
          let restructured = P.make_acquire_update_release (P.cluster_writes p) in
          Table.add_row table
            [
              p.P.name;
              Table.cell_int (P.n_locks p);
              Table.cell_int (P.damage_span p);
              wd p;
              string_of_bool (P.is_three_phase p);
              Printf.sprintf "%s well-defined, three-phase %b" (wd restructured)
                (P.is_three_phase restructured);
            ])
        programs;
      Table.print table;
      if dot then
        List.iter
          (fun p ->
            Fmt.pr "// %s@.%s@." p.Prb_txn.Program.name
              (Prb_rollback.Sdg_view.to_dot p))
          programs;
      0

let analyze_cmd =
  let doc = "analyse transaction structure for rollback friendliness" in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const analyze_file $ dot_arg $ file_arg)

(* --- prb chaos: fault-injection sweep --------------------------------- *)

let chaos_seeds_arg =
  Arg.(
    value & opt int 20
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Fault-plan seeds to sweep (each runs both engines).")

let chaos_horizon_arg =
  Arg.(
    value & opt int 400
    & info [ "horizon" ] ~docv:"TICKS"
        ~doc:"Tick after which every plan stops injecting faults.")

let chaos_verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Print every report, not just failures.")

let chaos_matrix_arg =
  Arg.(
    value & flag
    & info [ "matrix" ]
        ~doc:
          "Also run the detection-policy liveness matrix: every policy \
           (eager, periodic, adaptive) on both engines, under a \
           clean plan and a detector-outage plan, with the starvation \
           guard armed — checking the usual invariants plus the \
           no-starvation bound.")

let run_chaos seeds horizon verbose matrix =
  let module Chaos = Prb_chaos.Chaos in
  let reports =
    Chaos.sweep ~horizon ~seeds ()
    @ (if matrix then Chaos.policy_matrix ~seeds () else [])
  in
  if verbose then
    List.iter (fun r -> Fmt.pr "%a@.@." Chaos.pp_report r) reports;
  let bad = Chaos.failures reports in
  List.iter (fun r -> Fmt.pr "FAIL %a@.@." Chaos.pp_report r) bad;
  Fmt.pr "chaos: %d/%d runs clean@."
    (List.length reports - List.length bad)
    (List.length reports);
  if bad = [] then 0 else 1

let chaos_cmd =
  let doc = "sweep randomized fault plans and check recovery invariants" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a conserved-sum transfer workload through both engines under \
         randomized fault plans (site crashes, message loss/duplication/\
         delay, detector outages, transaction crashes) and checks, after \
         every run: serializability, balance conservation, an empty lock \
         table, full commitment, and bit-for-bit replay determinism.";
    ]
  in
  Cmd.v
    (Cmd.info "chaos" ~doc ~man)
    Term.(
      const run_chaos $ chaos_seeds_arg $ chaos_horizon_arg
      $ chaos_verbose_arg $ chaos_matrix_arg)

(* --- prb bench: the E13 scaling sweep --------------------------------- *)

let bench_quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Scale the sweep down (100/500 txns instead of \
                             100/1k/5k).")

let bench_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write the sweep as machine-readable JSON to $(docv). \
           The committed $(b,BENCH_scale.json) is the $(b,--compare) \
           baseline: writing over it replaces the baseline with this \
           machine's numbers.")

let bench_compare_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "compare" ] ~docv:"BASELINE"
        ~doc:
          "Compare the sweep against the points in $(docv) (a file \
           previously written with $(b,--json)) and fail when throughput \
           regressed beyond the tolerance at any matching point.")

let bench_tolerance_arg =
  Arg.(
    value & opt float 0.2
    & info [ "tolerance" ] ~docv:"FRACTION"
        ~doc:
          "Allowed $(b,commits_per_sec) drop relative to the baseline \
           before $(b,--compare) fails (default 0.2 = 20%).")

let bench_policies_arg =
  Arg.(
    value & flag
    & info [ "policies" ]
        ~doc:
          "Also run the E14 detection-policy sweep (policy × contention × \
           detector outage on the centralised engine) and report each \
           policy's wall-time speedup over eager detection at equal \
           commits.")

let bench_gate_speedup_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "gate-speedup" ] ~docv:"X"
        ~doc:
          "With $(b,--policies): fail unless some deferred policy cuts \
           central high-contention wall time by at least a factor of \
           $(docv) (at equal commits, outage-free).")

let run_bench quick json compare tolerance policies gate_speedup =
  let module Scale = Prb_bench_scale.Scale in
  (* Read the baseline before --json possibly overwrites the same path. *)
  let baseline =
    match compare with
    | None -> None
    | Some path -> (
        try Some (Scale.load ~path) with
        | Sys_error msg ->
            Fmt.epr "bench: cannot read baseline: %s@." msg;
            exit 1
        | Scale.Parse_error msg ->
            Fmt.epr "bench: malformed baseline %s: %s@." path msg;
            exit 1)
  in
  let points = Scale.sweep ~quick () in
  Scale.print_table points;
  let policy_points =
    if policies then begin
      let pts = Scale.sweep_policies ~quick () in
      Scale.print_policy_table pts;
      (match Scale.best_central_speedup pts with
      | Some (policy, s) ->
          Fmt.pr
            "policy gate: best high-contention speedup over eager: %.2fx \
             (%s)@."
            s policy
      | None ->
          Fmt.pr
            "policy gate: no deferred policy matched eager's commits at high \
             contention@.");
      pts
    end
    else []
  in
  (match json with
  | Some path ->
      Scale.write_json ~path ~quick ~policies:policy_points points;
      Fmt.pr "wrote %s (%d points)@." path
        (List.length points + List.length policy_points)
  | None -> ());
  let policy_gate_failed =
    match gate_speedup with
    | None -> false
    | Some want -> (
        if not policies then begin
          Fmt.epr "bench: --gate-speedup requires --policies@.";
          true
        end
        else
          match Scale.best_central_speedup policy_points with
          | Some (policy, s) when s >= want ->
              Fmt.pr "policy gate: PASS %.2fx >= %.2fx (%s)@." s want policy;
              false
          | Some (policy, s) ->
              Fmt.epr "policy gate: FAIL best speedup %.2fx (%s) < %.2fx@." s
                policy want;
              true
          | None ->
              Fmt.epr
                "policy gate: FAIL no deferred policy matched eager's \
                 commits@.";
              true)
  in
  let compare_failed =
    match baseline with
    | None -> false
    | Some baseline -> (
        let failures, compared =
          Scale.compare_against ~tolerance ~baseline points
        in
        match failures with
        | [] ->
            Fmt.pr "perf gate: %d point(s) within %.0f%% of baseline@."
              compared (100.0 *. tolerance);
            false
        | _ ->
            List.iter
              (fun f -> Fmt.epr "perf gate: REGRESSION %s@." f)
              failures;
            Fmt.epr "perf gate: %d of %d compared point(s) regressed@."
              (List.length failures) compared;
            true)
  in
  if policy_gate_failed || compare_failed then 1 else 0

let bench_cmd =
  let doc = "run the E13 scaling benchmark (throughput on both engines)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Sweeps transaction count × contention on the centralised and \
         multi-site engines and reports wall-clock throughput, the share \
         of time spent in deadlock detection, and allocation volume. With \
         $(b,--json) the results also land in a JSON file so successive \
         changes accumulate a comparable perf trajectory; $(b,--compare) \
         turns a previous file into a regression gate.";
    ]
  in
  Cmd.v
    (Cmd.info "bench" ~doc ~man)
    Term.(
      const run_bench $ bench_quick_arg $ bench_json_arg $ bench_compare_arg
      $ bench_tolerance_arg $ bench_policies_arg $ bench_gate_speedup_arg)

(* --- prb lint: determinism & protocol-invariant static analysis ------- *)

let lint_paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to lint. Defaults to $(b,lib) and $(b,bin) \
           of the enclosing dune project (found by walking up from the \
           current directory).")

let lint_rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"IDS"
        ~doc:
          "Comma-separated rule ids to enable (e.g. $(b,D1,D3)). Default: \
           all rules.")

let lint_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit findings as a JSON report object (sorted by file, line, \
           rule id; carries $(b,schema_version)).")

let lint_deep_arg =
  Arg.(
    value & flag
    & info [ "deep" ]
        ~doc:
          "Also run the typed deep pass (rules A1/A2/P1/H1). Directory \
           arguments are analyzed through the .cmt files of the \
           enclosing dune build ($(b,_build/default/lib)) — run \
           $(b,dune build) first; dune emits the needed bin-annot \
           output by default. Explicit $(b,.ml) file arguments are \
           typechecked against the stdlib and analyzed directly.")

let default_lint_paths () =
  (* walk up to the dune-project root so [prb lint] works from anywhere
     inside the repo *)
  let rec root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else root parent
  in
  match root (Sys.getcwd ()) with
  | Some dir ->
      [
        Filename.concat dir "lib";
        Filename.concat dir "bin";
        Filename.concat dir "bench";
      ]
      |> List.filter Sys.file_exists
  | None -> []

let run_lint paths rules json deep =
  let module Lint = Prb_lint.Lint in
  let rules =
    match rules with
    | None -> None
    | Some spec ->
        let ids =
          String.split_on_char ',' spec
          |> List.concat_map (String.split_on_char ' ')
          |> List.filter (fun s -> not (String.equal s ""))
        in
        let parsed =
          List.map
            (fun id ->
              match Lint.rule_of_id id with
              | Some r -> r
              | None ->
                  Fmt.epr "prb lint: unknown rule id %S@." id;
                  exit 2)
            ids
        in
        Some parsed
  in
  let paths =
    match paths with
    | [] -> (
        match default_lint_paths () with
        | [] ->
            Fmt.epr
              "prb lint: no PATH given and no dune-project found above the \
               current directory@.";
            exit 2
        | ps -> ps)
    | ps -> ps
  in
  let violations, errors = Lint.scan ?rules paths in
  let deep_violations, deep_errors =
    if deep then begin
      (* explicit .ml file arguments get the typed pass directly; any
         directory argument triggers the repo-wide pass over the built
         tree's .cmt files *)
      let file_violations, file_errors =
        List.fold_left
          (fun (vs, es) p ->
            if Sys.file_exists p && not (Sys.is_directory p) then
              match Prb_lint.Lint_deep.check_file p with
              | Ok v -> (v @ vs, es)
              | Error e -> (vs, (p, e) :: es)
            else (vs, es))
          ([], []) paths
      in
      let tree_violations, tree_errors =
        if List.exists (fun p -> Sys.is_directory p) paths then
          Prb_lint.Lint_deep.scan_build ()
        else ([], [])
      in
      (file_violations @ tree_violations, file_errors @ tree_errors)
    end
    else ([], [])
  in
  let deep_violations =
    match rules with
    | None -> deep_violations
    | Some rs ->
        List.filter (fun v -> List.mem v.Lint.rule rs) deep_violations
  in
  let violations =
    List.sort Lint.compare_violation (violations @ deep_violations)
  in
  let errors = errors @ deep_errors in
  if json then Fmt.pr "%s@." (Lint.report_json violations)
  else List.iter (fun v -> Fmt.pr "%a@." Lint.pp_violation v) violations;
  List.iter (fun (f, e) -> Fmt.epr "prb lint: error in %s:@.%s@." f e) errors;
  if errors <> [] then 2 else if violations <> [] then 1 else 0

let lint_cmd =
  let doc = "statically check determinism and protocol invariants" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every OCaml module under the given paths (no type \
         information needed) and enforces the repository's replay-\
         determinism discipline as named rules: D1 (no hash-order Hashtbl \
         traversal in replay-critical libraries), D2 (no polymorphic \
         compare where an id module owns the order), D3 (no ambient \
         randomness or wall clock), L1 (core/lock must not depend on the \
         simulation stack), L2 (no catch-all match arm on the \
         distributed protocol message type) and L3 (in lib/core and \
         lib/distrib only engine.ml performs lock-table transitions: \
         Lock_table.request/release/cancel_wait, \
         History.note_grant and Waits_for.set_wait/clear_wait).";
      `P
        "With $(b,--deep), additionally loads the typed trees (.cmt) of \
         the enclosing dune build and checks A1 (functions marked \
         [@hot] are transitively allocation-free), A2 (no Hashtbl \
         find, find_opt, mem, replace, add or hash is reachable from a \
         [@hot] function: hot paths reach entities by store id and hash \
         no name), P1 (static two-phase locking: no lock acquire after \
         a release of the same transaction, except through the rollback \
         layer) and H1 (unsafe_* access stays in lib/util).";
      `P
        "Violations print as $(b,file:line:col: rule-id message). Suppress \
         a finding with $(b,[@lint.allow \"D1\"]) on the expression, \
         $(b,[@@lint.allow \"D1\"]) on the enclosing let-binding, or a \
         floating $(b,[@@@lint.allow \"D1 D2\"]) for the rest of the \
         file. Deep rules (A1/A2/P1/H1) additionally require a rationale: \
         $(b,[@lint.allow \"A1: why this site is exempt\"]).";
      `P "Exits 0 when clean, 1 on violations, 2 on parse/usage errors.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(
      const run_lint $ lint_paths_arg $ lint_rules_arg $ lint_json_arg
      $ lint_deep_arg)

(* --- main ------------------------------------------------------------- *)

let () =
  let doc = "deadlock removal using partial rollback (SIGMOD 1981)" in
  let info = Cmd.info "prb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            sim_cmd;
            sweep_cmd;
            distrib_cmd;
            run_cmd;
            analyze_cmd;
            chaos_cmd;
            bench_cmd;
            lint_cmd;
          ]))
