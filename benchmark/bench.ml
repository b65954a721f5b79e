(* The run protocol, the metrics and the report.

   A run is one warm-up repetition (untimed; its final state is also
   checked against a serial execution), then timed repetitions with
   tracing off until [seconds] have passed (at least [min_reps]), then
   one traced repetition. Every repetition regenerates its store and
   programs from the seed. End-to-end metrics come from the timed
   repetitions, per-layer metrics from the traced one. *)

module Stats = Prb_util.Stats

type metric = {
  name : string;
  unit : string;
  value : float;
  n : int;  (** samples the value was computed from *)
  per_rep : float array;  (** the same statistic per repetition, for its spread *)
}

type result = {
  workload : string;
  seed : int;
  reps : int;  (** timed repetitions *)
  attempted : int;
  failed : int;
  errors : string list;
  outcome : Loop.outcome;
  end_to_end : metric list;
  per_layer : metric list;
}

let correct r = r.failed = 0 && r.errors = []
let exit_code r = if correct r then 0 else 1

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fl = float_of_int
let median xs = if Array.length xs = 0 then nan else Stats.median xs
let pct p xs = if Array.length xs = 0 then nan else Stats.percentile xs p
let metric ?(n = 1) ?(per_rep = [||]) name unit value = { name; unit; value; n; per_rep }

(* A statistic taken per repetition, reported as [pick] over the
   repetitions: the median, or, for the wall-clock speed metrics, the
   fastest repetition. The machine these numbers come from has phases,
   lasting seconds to minutes, in which everything runs up to 30% slower;
   the fastest of several repetitions is the one such a phase touched
   least, so it moves least between runs. *)
let over_reps ?(pick = median) ?n name unit f reps =
  let per_rep = Array.of_list (List.map f reps) in
  let n = Option.value n ~default:(Array.length per_rep) in
  metric ~n ~per_rep name unit (pick per_rep)

let highest = Array.fold_left Float.max neg_infinity
let lowest = Array.fold_left Float.min infinity

(* A latency percentile of each repetition; [n] counts every sample. *)
let latency name unit p ~scale ~pick field reps =
  let n = List.fold_left (fun a r -> a + Array.length (field r)) 0 reps in
  over_reps ~pick ~n name unit
    (fun r -> pct p (Array.map (fun x -> fl x *. scale) (field r)))
    reps

let commits_per_s (r : Loop.rep) = ratio (fl r.Loop.committed) r.Loop.engine_s

let end_to_end ~timed ~setups ~(warm : Loop.rep) =
  let o = warm.Loop.counters.Loop.outcome in
  [
    over_reps ~pick:highest "commits_per_s" "commits/s" commits_per_s timed;
    latency "txn_p50_ms" "ms" 50.0 ~scale:1e-6 ~pick:lowest
      (fun r -> r.Loop.latency_ns)
      timed;
    latency "txn_p99_ms" "ms" 99.0 ~scale:1e-6 ~pick:lowest
      (fun r -> r.Loop.latency_ns)
      timed;
    latency "txn_p99_ticks" "ticks" 99.0 ~scale:1.0 ~pick:median
      (fun r -> r.Loop.latency_ticks)
      timed;
    over_reps "setup_s" "s"
      (fun r -> r.Loop.populate_s +. r.Loop.generate_s)
      setups;
    over_reps "alloc_words_per_commit" "words"
      (fun r -> ratio r.Loop.alloc_words (fl r.Loop.committed))
      timed;
    metric "live_heap_mb" "MB"
      (fl (Option.value ~default:0 warm.Loop.live_words * (Sys.word_size / 8)) /. 1e6);
    metric "work_amplification" "ratio"
      (ratio (fl o.Loop.ops_executed) (fl warm.Loop.counters.Loop.ops_committed));
  ]

let per_layer ~timed ~setups ~(traced : Loop.rep) (tr : Loop.trace) =
  let c = traced.Loop.counters in
  let o = c.Loop.outcome in
  let commits = fl o.Loop.commits and deadlocks = fl o.Loop.deadlocks in
  let s ns = Loop.seconds ns in
  let class_s cls = s (fst (Loop.class_ns tr cls)) in
  let class_us cls =
    let ns, k = Loop.class_ns tr cls in
    ratio (fl ns *. 1e-3) (fl k)
  in
  let step_s =
    List.fold_left ( +. ) 0.0
      (List.map class_s Loop.[ exec; lock; block; commit; resolve ])
  in
  let submit_s = s (Loop.submit_ns tr) in
  let untraced = median (Array.of_list (List.map commits_per_s timed)) in
  [
    over_reps "workload.populate_s" "s" (fun r -> r.Loop.populate_s) setups;
    over_reps "workload.generate_s" "s" (fun r -> r.Loop.generate_s) setups;
    metric "scheduler.submit_s" "s" submit_s;
    metric "scheduler.step_s" "s" step_s;
    metric "scheduler.steps_per_commit" "steps/commit"
      (ratio (fl traced.Loop.steps) commits);
    metric "scheduler.ticks_per_commit" "ticks/commit"
      (ratio (fl o.Loop.ticks) commits);
    metric "scheduler.coverage" "ratio"
      (ratio (submit_s +. step_s) traced.Loop.engine_s);
    metric "step.exec_s" "s" (class_s Loop.exec);
    metric "step.lock_s" "s" (class_s Loop.lock);
    metric "step.block_s" "s" (class_s Loop.block);
    metric "step.commit_s" "s" (class_s Loop.commit);
    metric "step.resolve_s" "s" (class_s Loop.resolve);
    metric "step.commit_us" "us" (class_us Loop.commit);
    metric "step.resolve_us" "us" (class_us Loop.resolve);
    metric "lock.requests_per_commit" "requests/commit"
      (ratio (fl c.Loop.requests) commits);
    metric "lock.block_ratio" "ratio"
      (ratio (fl c.Loop.blocks) (fl c.Loop.requests));
    metric "lock.upgrades" "count" (fl c.Loop.upgrades);
    metric "wfg.check_s" "s" c.Loop.check_s;
    metric "wfg.check_calls" "count" (fl c.Loop.check_calls);
    metric "resolver.enumerate_s" "s" c.Loop.enumerate_s;
    metric "resolver.enumerate_calls" "count" (fl c.Loop.enumerate_calls);
    metric "resolver.enumerations_per_deadlock" "enums/deadlock"
      (ratio (fl c.Loop.enumerate_calls) deadlocks);
    metric "resolver.cycles_per_deadlock" "cycles/deadlock"
      (ratio (fl tr.Loop.cycles) (fl tr.Loop.rounds));
    metric "resolver.victims_per_deadlock" "victims/deadlock"
      (ratio (fl tr.Loop.victims) (fl tr.Loop.rounds));
    metric "resolver.optimal_share" "ratio"
      (ratio (fl tr.Loop.optimal) (fl tr.Loop.rounds));
    metric "resolver.rounds_per_resolve_step" "rounds/step"
      (ratio (fl tr.Loop.rounds) (fl tr.Loop.n_resolves));
    metric "resolver.decide_s" "s" (s (Loop.decide_ns tr));
    metric "rollback.apply_s" "s" (s (Loop.apply_ns tr));
    metric "rollback.per_commit" "rollbacks/commit"
      (ratio (fl o.Loop.rollbacks) commits);
    metric "rollback.overshoot_ops" "ops" (fl c.Loop.overshoot_ops);
    metric "rollback.requeues" "count" (fl c.Loop.requeues);
    metric "rollback.peak_copies" "copies" (fl c.Loop.peak_copies);
    metric "history.verdict_s" "s" traced.Loop.verdict_s;
    metric "history.retained_peak" "intervals" (fl tr.Loop.retained_peak);
    metric "distrib.messages_per_commit" "messages/commit"
      (ratio (fl o.Loop.messages) commits);
    metric "distrib.global_share" "ratio"
      (ratio (fl c.Loop.global_deadlocks) deadlocks);
    over_reps "gc.minor_collections" "count"
      (fun r -> fl r.Loop.minor_collections)
      timed;
    over_reps "gc.major_collections" "count"
      (fun r -> fl r.Loop.major_collections)
      timed;
    over_reps "gc.promoted_words_per_commit" "words"
      (fun r -> ratio r.Loop.promoted_words (fl r.Loop.committed))
      timed;
    metric "trace.overhead" "ratio"
      (1.0 -. ratio (commits_per_s traced) untraced);
  ]

let run ?(min_reps = 3) ?spans (w : Workloads.t) ~seed ~seconds =
  let w = Workloads.with_seed w seed in
  let warm = Loop.run_rep ~warm_up:true w ~seed in
  let expected = warm.Loop.counters.Loop.outcome in
  (* A repetition whose outcome differs from the warm-up's has changed
     behaviour between identical runs: all its transactions fail. *)
  let failed_of (r : Loop.rep) =
    if r.Loop.counters.Loop.outcome = expected then r.Loop.failed
    else r.Loop.attempted
  in
  let errors_of label (r : Loop.rep) =
    (match r.Loop.error with
    | Some e -> [ Printf.sprintf "%s: %s" label e ]
    | None -> [])
    @
    if r.Loop.counters.Loop.outcome = expected then []
    else [ label ^ ": outcome differs from the warm-up" ]
  in
  let start = Loop.now_ns () in
  let rec timed_reps acc k =
    if k >= min_reps && Loop.seconds (Loop.now_ns () - start) >= seconds
    then List.rev acc
    else timed_reps (Loop.run_rep w ~seed :: acc) (k + 1)
  in
  let timed = timed_reps [] 0 in
  let tr =
    Loop.trace_buffers ~steps:warm.Loop.steps ~submits:w.Workloads.n_txns
      ~resolves:expected.Loop.deadlocks
  in
  let traced = Loop.run_rep ~trace:tr w ~seed in
  Option.iter (Loop.write_spans tr) spans;
  let reps = (warm :: timed) @ [ traced ] in
  let setups = timed @ [ traced ] in
  {
    workload = w.Workloads.name;
    seed;
    reps = List.length timed;
    attempted = List.fold_left (fun a r -> a + r.Loop.attempted) 0 reps;
    failed = List.fold_left (fun a r -> a + failed_of r) 0 reps;
    errors =
      errors_of "warm-up" warm
      @ List.concat (List.mapi (fun i r -> errors_of (Printf.sprintf "rep %d" (i + 1)) r) timed)
      @ errors_of "traced" traced
      @ (if tr.Loop.overflow then [ "traced: span buffers overflowed" ] else []);
    outcome = expected;
    end_to_end = end_to_end ~timed ~setups ~warm;
    per_layer = per_layer ~timed ~setups ~traced tr;
  }

(* --- Report ------------------------------------------------------------- *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_metric m =
  let q1, q3 =
    if Array.length m.per_rep = 0 then (m.value, m.value)
    else (pct 25.0 m.per_rep, pct 75.0 m.per_rep)
  in
  Printf.printf "%s %s %s n=%d q1=%s q3=%s\n" m.name (json_number m.value)
    m.unit m.n (json_number q1) (json_number q3)

let json_line r ~trace =
  let metrics = if trace then r.per_layer else r.end_to_end in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit)
          metrics))

let print r ~trace =
  let o = r.outcome in
  Printf.printf "workload %s seed %d timed reps %d\n" r.workload r.seed r.reps;
  Printf.printf
    "outcome ticks=%d commits=%d deadlocks=%d rollbacks=%d ops_lost=%d \
     ops_executed=%d messages=%d\n"
    o.Loop.ticks o.Loop.commits o.Loop.deadlocks o.Loop.rollbacks
    o.Loop.ops_lost o.Loop.ops_executed o.Loop.messages;
  List.iter print_metric r.end_to_end;
  List.iter print_metric r.per_layer;
  List.iter (Printf.printf "error %s\n") r.errors;
  Printf.printf "transactions attempted=%d failed=%d\n" r.attempted r.failed;
  print_endline (json_line r ~trace)
