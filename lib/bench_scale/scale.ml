module Table = Prb_util.Table
module Json = Prb_util.Json
module Scheduler = Prb_core.Scheduler
module Run_stats = Prb_core.Run_stats
module Detection_policy = Prb_core.Detection_policy
module Fault = Prb_fault.Fault
module Sim = Prb_sim.Sim
module Strategy = Prb_rollback.Strategy
module Generator = Prb_workload.Generator
module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim

(* Declared before [point] so that an unannotated field access means a
   point. *)
type gate_point = {
  engine : string;
  txns : int;
  contention : string;
  commits_per_sec : float;
  allocated_mwords : float;
}

type point = {
  engine : string;  (* "central" | "distrib" *)
  policy : string;
  outage : bool;
  txns : int;
  contention : string;  (* "low" | "high" *)
  entities : int;
  theta : float;
  mpl : int;
  commits : int;
  ticks : int;
  deadlocks : int;
  rollbacks : int;
  wall_seconds : float;
  commits_per_sec : float;
  check_seconds : float;
  check_share : float;
  check_calls : int;
  enumerate_seconds : float;
  enumerate_share : float;
  enumerate_calls : int;
  detection_passes : int;
  watchdog_fires : int;
  max_blocked_ticks : int;
  allocated_mwords : float;
}

(* BENCH_scale.json schema. Version 2 split the detection accounting
   into check (boolean deadlock probes and censuses) and enumerate
   (cycle enumeration for the resolver) fields; version 1 — files
   without the field — carried a single detect_seconds/share/calls
   triple that also folded victim selection and rollback application
   into "detection". *)
let schema_version = 2

let seed = 11
let mpl = 16
let max_ticks = 10_000_000

(* The two ends of the contention axis. Low contention scales the
   database with the transaction count (conflicts stay rare, the run
   stresses table bookkeeping); high contention pins a small hot set so
   the waits-for machinery dominates — the regime where detection cost
   rules 2PL throughput. *)
let params_of ~contention ~txns =
  let n_entities =
    match contention with
    | `Low -> min 20_000 (8 * txns)
    | `High -> 64
  in
  let zipf_theta = match contention with `Low -> 0.0 | `High -> 0.8 in
  ( n_entities,
    zipf_theta,
    {
      Generator.default_params with
      n_entities;
      zipf_theta;
      read_fraction = 0.3;
      min_locks = 3;
      max_locks = 6;
    } )

let contention_name = function `Low -> "low" | `High -> "high"

(* Allocation across minor and major heaps, in words, ignoring what was
   merely promoted (counted once in minor). [Gc.minor_words] counts up to
   the current allocation pointer, but [quick_stat]'s major and promoted
   words advance only as collections run; the full major collection
   brings them up to date, so a point's reading repeats exactly between
   runs of one build. *)
let allocated_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let measure f =
  let w0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let w1 = allocated_words () in
  (r, t1 -. t0, (w1 -. w0) /. 1e6)

(* One point per measured run, over the record both engines report. *)
let point ~engine ~contention ~txns ~detection ~faults
    ((s : Run_stats.stats), wall, mwords) =
  let entities, theta, _ = params_of ~contention ~txns in
  let share x = if wall > 0.0 then x /. wall else nan in
  {
    engine;
    policy = Detection_policy.to_string detection;
    outage =
      (match faults with
      | Some plan -> plan.Fault.detector_outages <> []
      | None -> false);
    txns;
    contention = contention_name contention;
    entities;
    theta;
    mpl;
    commits = s.commits;
    ticks = s.ticks;
    deadlocks = s.deadlocks;
    rollbacks = s.rollbacks;
    wall_seconds = wall;
    commits_per_sec = share (float_of_int s.commits);
    check_seconds = s.check_seconds;
    check_share = share s.check_seconds;
    check_calls = s.check_calls;
    enumerate_seconds = s.enumerate_seconds;
    enumerate_share = share s.enumerate_seconds;
    enumerate_calls = s.enumerate_calls;
    detection_passes = s.detection_passes;
    watchdog_fires = s.watchdog_fires;
    max_blocked_ticks = s.max_blocked_ticks;
    allocated_mwords = mwords;
  }

(* Workload synthesis happens outside the timed region: a point measures
   the engine, not the generator (folding synthesis in understated
   central throughput by ~40% at low contention). *)
let workload ~contention ~txns =
  let _, _, params = params_of ~contention ~txns in
  (Generator.populate params, Generator.generate params ~seed ~n:txns)

let central_config =
  {
    Scheduler.default_config with
    strategy = Strategy.Sdg;
    seed;
    max_ticks;
    clock = Some Unix.gettimeofday;
  }

let run_central ~contention ~txns (scheduler : Scheduler.config) =
  let store, programs = workload ~contention ~txns in
  let config = { Sim.scheduler; mpl } in
  point ~engine:"central" ~contention ~txns ~detection:scheduler.detection
    ~faults:scheduler.faults
    (measure (fun () -> (Sim.run ~config ~store programs).Sim.stats))

let run_distrib ~contention ~txns =
  let store, programs = workload ~contention ~txns in
  let scheduler =
    {
      D.default_config with
      n_sites = 4;
      seed;
      max_ticks;
      clock = Some Unix.gettimeofday;
    }
  in
  let config = { Dist_sim.scheduler; mpl } in
  point ~engine:"distrib" ~contention ~txns
    ~detection:scheduler.detection_policy ~faults:scheduler.faults
    (measure (fun () -> (Dist_sim.run ~config ~store programs).Dist_sim.stats))

(* The smallest points finish in single-digit milliseconds, where
   scheduler noise swamps a 20% regression gate; every point therefore
   reports the fastest of [reps] identical runs. Simulation outcomes are
   deterministic in the seed, so the repetitions differ only in timing. *)
let reps = 3

let best_of f =
  let rec go best k =
    if k = 0 then best
    else
      let p = f () in
      go (if p.wall_seconds < best.wall_seconds then p else best) (k - 1)
  in
  go (f ()) (reps - 1)

let sweep ?(quick = false) () =
  let txn_counts = if quick then [ 100; 500 ] else [ 100; 1000; 5000 ] in
  List.concat_map
    (fun contention ->
      List.concat_map
        (fun txns ->
          [
            best_of (fun () -> run_central ~contention ~txns central_config);
            best_of (fun () -> run_distrib ~contention ~txns);
          ])
        txn_counts)
    [ `Low; `High ]

(* The guard is armed on every E14 point so the sweep measures the
   production configuration of the deferred policies, not an
   unprotected one. *)
let policy_starvation_limit = 8

(* The detector is dark for a 1000-tick window early in the run — long
   enough to swallow many scheduled passes of every policy, early enough
   that the watchdog's forced recovery sweep still has most of the run
   left to show up in the timing. *)
let policy_outage_plan =
  {
    Fault.none with
    Fault.fault_seed = seed;
    detector_outages = [ { Fault.out_from = 200; out_until = 1200 } ];
  }

let sweep_policies ?(quick = false) () =
  let txns = if quick then 500 else 5000 in
  List.concat_map
    (fun contention ->
      List.concat_map
        (fun faults ->
          List.map
            (fun detection ->
              best_of (fun () ->
                  run_central ~contention ~txns
                    {
                      central_config with
                      detection;
                      starvation_limit = Some policy_starvation_limit;
                      faults;
                    }))
            Detection_policy.all)
        [ None; Some policy_outage_plan ])
    [ `Low; `High ]

(* Wall-time speedup over the eager point of the same (contention,
   outage, txns) cell — only claimed at equal commits, so a policy cannot
   "win" by finishing fewer transactions. *)
let speedup pts p =
  match
    List.find_opt
      (fun e ->
        String.equal e.policy "eager"
        && String.equal e.contention p.contention
        && e.outage = p.outage && e.txns = p.txns)
      pts
  with
  | Some e when e.commits = p.commits && p.wall_seconds > 0.0 ->
      Some (e.wall_seconds /. p.wall_seconds)
  | _ -> None

let best_central_speedup pts =
  List.fold_left
    (fun acc p ->
      if
        String.equal p.policy "eager"
        || (not (String.equal p.contention "high"))
        || p.outage
      then acc
      else
        match (speedup pts p, acc) with
        | None, _ -> acc
        | Some s, Some (_, s0) when s0 >= s -> acc
        | Some s, _ -> Some (p.policy, s))
    None pts

(* --- Tables ------------------------------------------------------------ *)

(* One table row per point, one column per (header, alignment, cell). *)
let print_points ~title columns points =
  let header = List.map (fun (name, align, _) -> (name, align)) columns in
  let table = Table.create ~title header in
  let row p = List.map (fun (_, _, cell) -> cell p) columns in
  List.iter (fun p -> Table.add_row table (row p)) points;
  Table.print table

let left name cell = (name, Table.Left, cell)
let right name cell = (name, Table.Right, cell)
let share_cell x = if Float.is_nan x then "-" else Table.cell_pct x
let contention_col = left "contention" (fun p -> p.contention)
let commits_col = right "commits" (fun p -> Table.cell_int p.commits)
let deadlocks_col = right "deadlocks" (fun p -> Table.cell_int p.deadlocks)

let wall_col =
  right "wall s" (fun p -> Table.cell_float ~decimals:3 p.wall_seconds)

let check_col = right "check share" (fun p -> share_cell p.check_share)
let enum_col = right "enum share" (fun p -> share_cell p.enumerate_share)

let print_table points =
  print_points
    ~title:
      (Printf.sprintf "E13: scaling sweep (mpl %d, seed %d, sdg rollback)" mpl
         seed)
    [
      left "engine" (fun p -> p.engine);
      contention_col;
      right "txns" (fun p -> Table.cell_int p.txns);
      right "entities" (fun p -> Table.cell_int p.entities);
      commits_col;
      deadlocks_col;
      wall_col;
      right "commits/s" (fun p ->
          Table.cell_float ~decimals:1 p.commits_per_sec);
      check_col;
      enum_col;
      right "alloc Mw" (fun p ->
          Table.cell_float ~decimals:1 p.allocated_mwords);
    ]
    points

let print_policy_table pts =
  print_points
    ~title:
      (Printf.sprintf
         "E14: detection-policy sweep (central, mpl %d, seed %d, starvation \
          limit %d)"
         mpl seed policy_starvation_limit)
    [
      left "policy" (fun p -> p.policy);
      contention_col;
      left "outage" (fun p -> if p.outage then "yes" else "no");
      commits_col;
      deadlocks_col;
      wall_col;
      (* "-": unequal commits, no comparable speedup *)
      right "speedup" (fun p ->
          match speedup pts p with
          | Some s -> Printf.sprintf "%.2fx" s
          | None -> "-");
      check_col;
      enum_col;
      right "passes" (fun p -> Table.cell_int p.detection_passes);
      right "watchdog" (fun p -> Table.cell_int p.watchdog_fires);
      right "max blocked" (fun p -> Table.cell_int p.max_blocked_ticks);
    ]
    pts

(* --- Writing benchmark JSON --------------------------------------------- *)

(* Hand-rolled JSON: the dependency footprint stays what the repo already
   has. Floats are printed with enough digits to round-trip. *)
let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let str_key k f = (k, fun p -> Printf.sprintf "%S" (f p))
let int_key k f = (k, fun p -> string_of_int (f p))
let num_key k f = (k, fun p -> json_float (f p))

(* The run's outcome, shared by both sections. *)
let outcome_keys =
  [
    int_key "commits" (fun p -> p.commits);
    int_key "ticks" (fun p -> p.ticks);
    int_key "deadlocks" (fun p -> p.deadlocks);
    int_key "rollbacks" (fun p -> p.rollbacks);
    num_key "wall_seconds" (fun p -> p.wall_seconds);
    num_key "commits_per_sec" (fun p -> p.commits_per_sec);
    num_key "check_seconds" (fun p -> p.check_seconds);
    num_key "check_share" (fun p -> p.check_share);
    int_key "check_calls" (fun p -> p.check_calls);
    num_key "enumerate_seconds" (fun p -> p.enumerate_seconds);
    num_key "enumerate_share" (fun p -> p.enumerate_share);
    int_key "enumerate_calls" (fun p -> p.enumerate_calls);
  ]

let point_keys =
  [
    str_key "engine" (fun p -> p.engine);
    int_key "txns" (fun p -> p.txns);
    str_key "contention" (fun p -> p.contention);
    int_key "entities" (fun p -> p.entities);
    num_key "zipf_theta" (fun p -> p.theta);
    int_key "mpl" (fun p -> p.mpl);
  ]
  @ outcome_keys
  @ [ num_key "allocated_mwords" (fun p -> p.allocated_mwords) ]

let policy_keys =
  [
    str_key "policy" (fun p -> p.policy);
    str_key "contention" (fun p -> p.contention);
    int_key "txns" (fun p -> p.txns);
    ("outage", fun p -> string_of_bool p.outage);
  ]
  @ outcome_keys
  @ [
      int_key "detection_passes" (fun p -> p.detection_passes);
      int_key "watchdog_fires" (fun p -> p.watchdog_fires);
      int_key "max_blocked_ticks" (fun p -> p.max_blocked_ticks);
    ]

let section keys points =
  String.concat ",\n"
    (List.map
       (fun p ->
         "    {"
         ^ String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (v p)) keys)
         ^ "}")
       points)

let write_json ~path ?(quick = false) ?(policies = []) points =
  let json =
    String.concat "\n"
      ([
         "{";
         "  \"experiment\": \"E13\",";
         Printf.sprintf "  \"schema_version\": %d," schema_version;
         "  \"description\": \"throughput scaling sweep: txns x contention, \
          both engines\",";
         Printf.sprintf "  \"quick\": %b," quick;
         Printf.sprintf "  \"seed\": %d," seed;
         Printf.sprintf "  \"mpl\": %d," mpl;
         "  \"points\": [";
         section point_keys points;
       ]
      @ (match policies with
        | [] -> [ "  ]" ]
        | _ ->
            [ "  ],"; "  \"policy_points\": ["; section policy_keys policies;
              "  ]" ])
      @ [ "}"; "" ])
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc

(* --- Reading benchmark JSON back (regression gate) -------------------- *)

exception Parse_error = Json.Parse_error

(* [json_float] writes NaN as null, which [Json.to_float] reads back. *)
let gate_point_of_json j : gate_point =
  {
    engine = Json.to_string (Json.field "engine" j);
    txns = Json.to_int (Json.field "txns" j);
    contention = Json.to_string (Json.field "contention" j);
    commits_per_sec = Json.to_float (Json.field "commits_per_sec" j);
    allocated_mwords = Json.to_float (Json.field "allocated_mwords" j);
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A file without the version field predates the check/enumerate split
   (implicitly version 1): fail with a pointed message instead of a
   puzzling "missing field check_seconds" from the first point. *)
let check_schema j =
  let v =
    match Json.member "schema_version" j with
    | Some v -> Json.to_int v
    | None -> 1
  in
  if v <> schema_version then
    raise
      (Parse_error
         (Printf.sprintf
            "schema_version %d, expected %d — regenerate the baseline with \
             'prb bench --json BENCH_scale.json --policies'"
            v schema_version))

let load ~path =
  let j = Json.parse (read_file path) in
  check_schema j;
  List.map gate_point_of_json (Json.to_list (Json.field "points" j))

(* Each baseline point gates two regressions at the same tolerance: a
   throughput floor and an allocation ceiling (a perf win paid for with
   garbage shows up in tail latency and the collector, not the mean). *)
let compare_against ~tolerance ~baseline points =
  let compared = ref 0 in
  let regressed (b : gate_point) ~what ~higher_is_better base cur =
    let worse =
      if higher_is_better then 1.0 -. (cur /. base) else (cur /. base) -. 1.0
    in
    if base > 0.0 && worse > tolerance then
      [
        Printf.sprintf
          "%s/%s/%d txns: %.1f %s, %.1f%% %s baseline %.1f (tolerance %.0f%%)"
          b.engine b.contention b.txns cur what (100.0 *. worse)
          (if higher_is_better then "below" else "above")
          base (100.0 *. tolerance);
      ]
    else []
  in
  let failures =
    List.concat_map
      (fun (b : gate_point) ->
        match
          List.find_opt
            (fun p ->
              String.equal b.engine p.engine
              && b.txns = p.txns
              && String.equal b.contention p.contention)
            points
        with
        | None -> []
        | Some p ->
            incr compared;
            regressed b ~what:"commits/s" ~higher_is_better:true
              b.commits_per_sec p.commits_per_sec
            @ regressed b ~what:"Mwords allocated" ~higher_is_better:false
                b.allocated_mwords p.allocated_mwords)
      baseline
  in
  (failures, !compared)
