module Table = Prb_util.Table
module Scheduler = Prb_core.Scheduler
module Run_stats = Prb_core.Run_stats
module Detection_policy = Prb_core.Detection_policy
module Fault = Prb_fault.Fault
module Sim = Prb_sim.Sim
module Strategy = Prb_rollback.Strategy
module Generator = Prb_workload.Generator
module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim

type point = {
  engine : string;  (* "central" | "distrib" *)
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
   merely promoted (counted once in minor). The minor term comes from
   [Gc.minor_words], which counts up to the current allocation pointer:
   [quick_stat]'s [minor_words] advances only at minor collections, which
   would put a short run's reading up to one minor heap (256k words)
   off. *)
let allocated_words () =
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
let point ~engine ~contention ~txns ((s : Run_stats.stats), wall, mwords) =
  let entities, theta, _ = params_of ~contention ~txns in
  let share x = if wall > 0.0 then x /. wall else nan in
  {
    engine;
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

let run_central ~contention ~txns scheduler =
  let store, programs = workload ~contention ~txns in
  let config = { Sim.scheduler; mpl } in
  measure (fun () -> (Sim.run ~config ~store programs).Sim.stats)

let run_distrib ~contention ~txns =
  let store, programs = workload ~contention ~txns in
  let config =
    {
      Dist_sim.scheduler =
        {
          D.default_config with
          n_sites = 4;
          seed;
          max_ticks;
          clock = Some Unix.gettimeofday;
        };
      mpl;
    }
  in
  measure (fun () -> (Dist_sim.run ~config ~store programs).Dist_sim.stats)

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
            best_of (fun () ->
                point ~engine:"central" ~contention ~txns
                  (run_central ~contention ~txns central_config));
            best_of (fun () ->
                point ~engine:"distrib" ~contention ~txns
                  (run_distrib ~contention ~txns));
          ])
        txn_counts)
    [ `Low; `High ]

(* --- E14: the detection-policy sweep ---------------------------------- *)

type policy_point = {
  p_policy : string;
  p_contention : string;
  p_txns : int;
  p_outage : bool;
  p_commits : int;
  p_ticks : int;
  p_deadlocks : int;
  p_rollbacks : int;
  p_wall_seconds : float;
  p_commits_per_sec : float;
  p_check_seconds : float;
  p_check_share : float;
  p_check_calls : int;
  p_enumerate_seconds : float;
  p_enumerate_share : float;
  p_enumerate_calls : int;
  p_detection_passes : int;
  p_watchdog_fires : int;
  p_max_blocked_ticks : int;
}

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

let run_policy ~detection ~contention ~txns ~outage =
  let ((s, _, _) as run) =
    run_central ~contention ~txns
      {
        central_config with
        detection;
        starvation_limit = Some policy_starvation_limit;
        faults = (if outage then Some policy_outage_plan else None);
      }
  in
  let p = point ~engine:"central" ~contention ~txns run in
  {
    p_policy = Detection_policy.to_string detection;
    p_contention = p.contention;
    p_txns = txns;
    p_outage = outage;
    p_commits = p.commits;
    p_ticks = p.ticks;
    p_deadlocks = p.deadlocks;
    p_rollbacks = p.rollbacks;
    p_wall_seconds = p.wall_seconds;
    p_commits_per_sec = p.commits_per_sec;
    p_check_seconds = p.check_seconds;
    p_check_share = p.check_share;
    p_check_calls = p.check_calls;
    p_enumerate_seconds = p.enumerate_seconds;
    p_enumerate_share = p.enumerate_share;
    p_enumerate_calls = p.enumerate_calls;
    p_detection_passes = s.detection_passes;
    p_watchdog_fires = s.watchdog_fires;
    p_max_blocked_ticks = s.max_blocked_ticks;
  }

let best_of_policy f =
  let rec go best k =
    if k = 0 then best
    else
      let p = f () in
      go (if p.p_wall_seconds < best.p_wall_seconds then p else best) (k - 1)
  in
  go (f ()) (reps - 1)

let sweep_policies ?(quick = false) () =
  let txns = if quick then 500 else 5000 in
  List.concat_map
    (fun contention ->
      List.concat_map
        (fun outage ->
          List.map
            (fun detection ->
              best_of_policy (fun () ->
                  run_policy ~detection ~contention ~txns ~outage))
            Detection_policy.all)
        [ false; true ])
    [ `Low; `High ]

(* Speedups relative to the eager point of the same (contention, outage,
   txns) cell — only claimed at equal commits, so a policy cannot "win"
   by finishing fewer transactions. *)
let policy_speedups pts =
  List.filter_map
    (fun p ->
      if String.equal p.p_policy "eager" then None
      else
        match
          List.find_opt
            (fun e ->
              String.equal e.p_policy "eager"
              && String.equal e.p_contention p.p_contention
              && e.p_outage = p.p_outage && e.p_txns = p.p_txns)
            pts
        with
        | Some e when e.p_commits = p.p_commits && p.p_wall_seconds > 0.0 ->
            Some (p, e.p_wall_seconds /. p.p_wall_seconds)
        | _ -> None)
    pts

let best_central_speedup pts =
  policy_speedups pts
  |> List.filter (fun (p, _) ->
         String.equal p.p_contention "high" && not p.p_outage)
  |> List.fold_left
       (fun acc (p, s) ->
         match acc with
         | Some (_, s0) when s0 >= s -> acc
         | _ -> Some (p.p_policy, s))
       None

let print_policy_table pts =
  let speedups = policy_speedups pts in
  let speedup_cell p =
    if String.equal p.p_policy "eager" then "1.00x"
    else
      match
        List.find_opt (fun (q, _) -> q == p) speedups
      with
      | Some (_, s) -> Printf.sprintf "%.2fx" s
      | None -> "-" (* unequal commits: no comparable speedup *)
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E14: detection-policy sweep (central, mpl %d, seed %d, \
            starvation limit %d)"
           mpl seed policy_starvation_limit)
      [
        ("policy", Table.Left);
        ("contention", Table.Left);
        ("outage", Table.Left);
        ("commits", Table.Right);
        ("deadlocks", Table.Right);
        ("wall s", Table.Right);
        ("speedup", Table.Right);
        ("check share", Table.Right);
        ("enum share", Table.Right);
        ("passes", Table.Right);
        ("watchdog", Table.Right);
        ("max blocked", Table.Right);
      ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          p.p_policy;
          p.p_contention;
          (if p.p_outage then "yes" else "no");
          Table.cell_int p.p_commits;
          Table.cell_int p.p_deadlocks;
          Table.cell_float ~decimals:3 p.p_wall_seconds;
          speedup_cell p;
          (if Float.is_nan p.p_check_share then "-"
           else Table.cell_pct p.p_check_share);
          (if Float.is_nan p.p_enumerate_share then "-"
           else Table.cell_pct p.p_enumerate_share);
          Table.cell_int p.p_detection_passes;
          Table.cell_int p.p_watchdog_fires;
          Table.cell_int p.p_max_blocked_ticks;
        ])
    pts;
  Table.print table

let print_table points =
  let table =
    Table.create
      ~title:
        (Printf.sprintf "E13: scaling sweep (mpl %d, seed %d, sdg rollback)"
           mpl seed)
      [
        ("engine", Table.Left);
        ("contention", Table.Left);
        ("txns", Table.Right);
        ("entities", Table.Right);
        ("commits", Table.Right);
        ("deadlocks", Table.Right);
        ("wall s", Table.Right);
        ("commits/s", Table.Right);
        ("check share", Table.Right);
        ("enum share", Table.Right);
        ("alloc Mw", Table.Right);
      ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          p.engine;
          p.contention;
          Table.cell_int p.txns;
          Table.cell_int p.entities;
          Table.cell_int p.commits;
          Table.cell_int p.deadlocks;
          Table.cell_float ~decimals:3 p.wall_seconds;
          Table.cell_float ~decimals:1 p.commits_per_sec;
          (if Float.is_nan p.check_share then "-"
           else Table.cell_pct p.check_share);
          (if Float.is_nan p.enumerate_share then "-"
           else Table.cell_pct p.enumerate_share);
          Table.cell_float ~decimals:1 p.allocated_mwords;
        ])
    points;
  Table.print table

(* Hand-rolled JSON: the dependency footprint stays what the repo already
   has. Floats are printed with enough digits to round-trip. *)
let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let point_to_json p =
  String.concat ""
    [
      "    {";
      Printf.sprintf "\"engine\": %S, " p.engine;
      Printf.sprintf "\"txns\": %d, " p.txns;
      Printf.sprintf "\"contention\": %S, " p.contention;
      Printf.sprintf "\"entities\": %d, " p.entities;
      Printf.sprintf "\"zipf_theta\": %s, " (json_float p.theta);
      Printf.sprintf "\"mpl\": %d, " p.mpl;
      Printf.sprintf "\"commits\": %d, " p.commits;
      Printf.sprintf "\"ticks\": %d, " p.ticks;
      Printf.sprintf "\"deadlocks\": %d, " p.deadlocks;
      Printf.sprintf "\"rollbacks\": %d, " p.rollbacks;
      Printf.sprintf "\"wall_seconds\": %s, " (json_float p.wall_seconds);
      Printf.sprintf "\"commits_per_sec\": %s, " (json_float p.commits_per_sec);
      Printf.sprintf "\"check_seconds\": %s, " (json_float p.check_seconds);
      Printf.sprintf "\"check_share\": %s, " (json_float p.check_share);
      Printf.sprintf "\"check_calls\": %d, " p.check_calls;
      Printf.sprintf "\"enumerate_seconds\": %s, "
        (json_float p.enumerate_seconds);
      Printf.sprintf "\"enumerate_share\": %s, " (json_float p.enumerate_share);
      Printf.sprintf "\"enumerate_calls\": %d, " p.enumerate_calls;
      Printf.sprintf "\"allocated_mwords\": %s" (json_float p.allocated_mwords);
      "}";
    ]

let policy_point_to_json p =
  String.concat ""
    [
      "    {";
      Printf.sprintf "\"policy\": %S, " p.p_policy;
      Printf.sprintf "\"contention\": %S, " p.p_contention;
      Printf.sprintf "\"txns\": %d, " p.p_txns;
      Printf.sprintf "\"outage\": %b, " p.p_outage;
      Printf.sprintf "\"commits\": %d, " p.p_commits;
      Printf.sprintf "\"ticks\": %d, " p.p_ticks;
      Printf.sprintf "\"deadlocks\": %d, " p.p_deadlocks;
      Printf.sprintf "\"rollbacks\": %d, " p.p_rollbacks;
      Printf.sprintf "\"wall_seconds\": %s, " (json_float p.p_wall_seconds);
      Printf.sprintf "\"commits_per_sec\": %s, "
        (json_float p.p_commits_per_sec);
      Printf.sprintf "\"check_seconds\": %s, " (json_float p.p_check_seconds);
      Printf.sprintf "\"check_share\": %s, " (json_float p.p_check_share);
      Printf.sprintf "\"check_calls\": %d, " p.p_check_calls;
      Printf.sprintf "\"enumerate_seconds\": %s, "
        (json_float p.p_enumerate_seconds);
      Printf.sprintf "\"enumerate_share\": %s, "
        (json_float p.p_enumerate_share);
      Printf.sprintf "\"enumerate_calls\": %d, " p.p_enumerate_calls;
      Printf.sprintf "\"detection_passes\": %d, " p.p_detection_passes;
      Printf.sprintf "\"watchdog_fires\": %d, " p.p_watchdog_fires;
      Printf.sprintf "\"max_blocked_ticks\": %d" p.p_max_blocked_ticks;
      "}";
    ]

let to_json ?(quick = false) ?(policies = []) points =
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
     ]
    @ [ String.concat ",\n" (List.map point_to_json points) ]
    @ (match policies with
      | [] -> [ "  ]" ]
      | _ ->
          [ "  ],"; "  \"policy_points\": [" ]
          @ [ String.concat ",\n" (List.map policy_point_to_json policies) ]
          @ [ "  ]" ])
    @ [ "}"; "" ])

let write_json ~path ?(quick = false) ?(policies = []) points =
  let oc = open_out path in
  output_string oc (to_json ~quick ~policies points);
  close_out oc

(* --- Reading benchmark JSON back (regression gate) -------------------- *)

exception Parse_error of string

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

(* A minimal recursive-descent parser covering the JSON this module
   itself emits — objects, arrays, strings, numbers, null, bools. *)
let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let len = String.length lit in
    if !pos + len <= n && String.equal (String.sub s !pos len) lit then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents b
        | '\\' ->
            incr pos;
            if !pos >= n then fail "truncated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | c -> fail (Printf.sprintf "unsupported escape \\%c" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          J_obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                J_obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          J_list []
        end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements (v :: acc)
            | Some ']' ->
                incr pos;
                J_list (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some 'n' -> literal "null" J_null
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          &&
          match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> J_num f
        | None -> fail "malformed number")
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let obj_field name = function
  | J_obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> raise (Parse_error ("missing field \"" ^ name ^ "\"")))
  | _ -> raise (Parse_error "expected an object")

let as_float = function
  | J_num f -> f
  | J_null -> nan (* json_float writes NaN as null *)
  | _ -> raise (Parse_error "expected a number")

let as_int = function
  | J_num f when Float.is_integer f -> int_of_float f
  | _ -> raise (Parse_error "expected an integer")

let as_string = function
  | J_str s -> s
  | _ -> raise (Parse_error "expected a string")

let as_list = function
  | J_list l -> l
  | _ -> raise (Parse_error "expected an array")

let point_of_json j =
  {
    engine = as_string (obj_field "engine" j);
    txns = as_int (obj_field "txns" j);
    contention = as_string (obj_field "contention" j);
    entities = as_int (obj_field "entities" j);
    theta = as_float (obj_field "zipf_theta" j);
    mpl = as_int (obj_field "mpl" j);
    commits = as_int (obj_field "commits" j);
    ticks = as_int (obj_field "ticks" j);
    deadlocks = as_int (obj_field "deadlocks" j);
    rollbacks = as_int (obj_field "rollbacks" j);
    wall_seconds = as_float (obj_field "wall_seconds" j);
    commits_per_sec = as_float (obj_field "commits_per_sec" j);
    check_seconds = as_float (obj_field "check_seconds" j);
    check_share = as_float (obj_field "check_share" j);
    check_calls = as_int (obj_field "check_calls" j);
    enumerate_seconds = as_float (obj_field "enumerate_seconds" j);
    enumerate_share = as_float (obj_field "enumerate_share" j);
    enumerate_calls = as_int (obj_field "enumerate_calls" j);
    allocated_mwords = as_float (obj_field "allocated_mwords" j);
  }

(* Optional lookup: lets a new reader accept files written before a
   section existed (and vice versa), so --compare keeps working across
   schema growth. *)
let obj_field_opt name = function
  | J_obj fields -> List.assoc_opt name fields
  | _ -> None

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
    match obj_field_opt "schema_version" j with Some v -> as_int v | None -> 1
  in
  if v <> schema_version then
    raise
      (Parse_error
         (Printf.sprintf
            "schema_version %d, expected %d — regenerate the baseline with \
             'prb bench --json BENCH_scale.json --policies'"
            v schema_version))

let load ~path =
  let j = parse_json (read_file path) in
  check_schema j;
  List.map point_of_json (as_list (obj_field "points" j))

let same_point a b =
  String.equal a.engine b.engine
  && a.txns = b.txns
  && String.equal a.contention b.contention

(* Each baseline point gates two regressions at the same tolerance: a
   throughput floor and an allocation ceiling (a perf win paid for with
   garbage shows up in tail latency and the collector, not the mean). *)
let compare_against ~tolerance ~baseline points =
  let compared = ref 0 in
  let failures =
    List.concat_map
      (fun b ->
        match List.find_opt (same_point b) points with
        | None -> []
        | Some p ->
            incr compared;
            let throughput =
              let floor = b.commits_per_sec *. (1.0 -. tolerance) in
              if p.commits_per_sec < floor then
                [
                  Printf.sprintf
                    "%s/%s/%d txns: %.1f commits/s, %.1f%% below baseline \
                     %.1f (tolerance %.0f%%)"
                    b.engine b.contention b.txns p.commits_per_sec
                    (100.0
                    *. (1.0 -. (p.commits_per_sec /. b.commits_per_sec)))
                    b.commits_per_sec (100.0 *. tolerance);
                ]
              else []
            in
            let allocation =
              if
                Float.is_nan b.allocated_mwords
                || b.allocated_mwords <= 0.0
                || Float.is_nan p.allocated_mwords
              then []
              else
                let ceiling = b.allocated_mwords *. (1.0 +. tolerance) in
                if p.allocated_mwords > ceiling then
                  [
                    Printf.sprintf
                      "%s/%s/%d txns: %.1f Mwords allocated, %.1f%% above \
                       baseline %.1f (tolerance %.0f%%)"
                      b.engine b.contention b.txns p.allocated_mwords
                      (100.0
                      *. ((p.allocated_mwords /. b.allocated_mwords) -. 1.0))
                      b.allocated_mwords (100.0 *. tolerance);
                  ]
                else []
            in
            throughput @ allocation)
      baseline
  in
  (failures, !compared)
