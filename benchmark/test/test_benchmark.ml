open Prb_benchmark
module Scheduler = Prb_core.Scheduler
module Sim = Prb_sim.Sim
module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim
module Generator = Prb_workload.Generator

let seed = 11

(* Every workload at 1/50 of its size: the whole file runs in seconds. *)
let small w = Workloads.with_seed (Workloads.scaled w ~divisor:50) seed
let run_once w = Bench.run ~min_reps:1 w ~seed ~seconds:0.0
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- The benchmark's loop reproduces Sim.run and Dist_sim.run ------ *)

let test_equivalent (w : Workloads.t) () =
  let w = small w in
  let store = Generator.populate w.params in
  let programs = Generator.generate w.params ~seed ~n:w.n_txns in
  let r = Loop.run_rep w ~seed in
  let c = r.Loop.counters in
  let o = c.Loop.outcome in
  (match w.engine with
  | Workloads.Central cfg ->
      let res = Sim.run ~config:{ Sim.scheduler = cfg; mpl = w.mpl } ~store programs in
      let s = res.Sim.stats in
      check_int "ticks" s.Scheduler.ticks o.Loop.ticks;
      check_int "commits" s.Scheduler.commits o.Loop.commits;
      check_int "deadlocks" s.Scheduler.deadlocks o.Loop.deadlocks;
      check_int "rollbacks" s.Scheduler.rollbacks o.Loop.rollbacks;
      check_int "ops lost" s.Scheduler.ops_lost o.Loop.ops_lost;
      check_int "ops executed" s.Scheduler.ops_executed o.Loop.ops_executed;
      check_int "ops committed" s.Scheduler.ops_committed c.Loop.ops_committed;
      check_int "blocks" s.Scheduler.blocks c.Loop.blocks;
      check_int "requeues" s.Scheduler.requeues c.Loop.requeues;
      check_int "overshoot" s.Scheduler.overshoot_ops c.Loop.overshoot_ops;
      check_int "peak copies" s.Scheduler.peak_copies c.Loop.peak_copies;
      check_int "check calls" res.Sim.check_calls c.Loop.check_calls;
      check_int "enumerate calls" res.Sim.enumerate_calls c.Loop.enumerate_calls
  | Workloads.Distrib cfg ->
      let res =
        Dist_sim.run ~config:{ Dist_sim.scheduler = cfg; mpl = w.mpl } ~store programs
      in
      let s = res.Dist_sim.stats in
      check_int "ticks" s.D.ticks o.Loop.ticks;
      check_int "commits" s.D.commits o.Loop.commits;
      check_int "deadlocks" s.D.deadlocks o.Loop.deadlocks;
      check_int "rollbacks" s.D.rollbacks o.Loop.rollbacks;
      check_int "ops lost" s.D.ops_lost o.Loop.ops_lost;
      check_int "messages" s.D.messages o.Loop.messages;
      check_int "global deadlocks" s.D.global_deadlocks c.Loop.global_deadlocks;
      check_int "check calls" s.D.check_calls c.Loop.check_calls;
      check_int "enumerate calls" s.D.enumerate_calls c.Loop.enumerate_calls);
  check_int "no failures" 0 r.Loop.failed;
  (* The hook and the clock only observe. *)
  let tr =
    Loop.trace_buffers ~steps:r.Loop.steps ~submits:w.n_txns
      ~resolves:o.Loop.deadlocks
  in
  let t = Loop.run_rep ~trace:tr w ~seed in
  check_bool "traced outcome equals untraced" true (t.Loop.counters.Loop.outcome = o);
  check_int "traced steps" r.Loop.steps tr.Loop.n_steps;
  check_bool "spans fit their buffers" false tr.Loop.overflow

(* --- Failures are counted, not fatal ---------------------------------- *)

let hotspot = Option.get (Workloads.find "hotspot")

let with_central f (w : Workloads.t) =
  match w.engine with
  | Workloads.Central c -> { w with engine = Workloads.Central (f c) }
  | Workloads.Distrib _ -> invalid_arg "with_central"

let test_tick_limit () =
  let r = run_once (with_central (fun c -> { c with max_ticks = 50 }) (small hotspot)) in
  check_bool "some transactions failed" true (r.Bench.failed > 0);
  check_bool "not all of them" true (r.Bench.failed < r.Bench.attempted);
  check_bool "run not correct" false (Bench.correct r);
  check_bool "non-zero exit" true (Bench.exit_code r <> 0)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* With no cycle enumeration a detected deadlock is never broken, and the
   engine eventually raises [Scheduler.Stuck]. *)
let test_stuck () =
  let r = run_once (with_central (fun c -> { c with cycle_limit = 0 }) (small hotspot)) in
  check_int "every transaction failed" r.Bench.attempted r.Bench.failed;
  check_bool "reported as stuck" true
    (List.exists (starts_with ~prefix:"warm-up: stuck") r.Bench.errors);
  check_bool "non-zero exit" true (Bench.exit_code r <> 0)

(* --- Smoke runs of every workload ------------------------------------- *)

let smoke = lazy (List.map (fun w -> (w, run_once (small w))) Workloads.all)

let test_smoke () =
  List.iter
    (fun ((w : Workloads.t), r) ->
      let name = w.Workloads.name in
      check_bool (name ^ " correct") true (Bench.correct r);
      check_int (name ^ " attempted") (3 * (small w).Workloads.n_txns) r.Bench.attempted;
      List.iter
        (fun m ->
          check_bool
            (Printf.sprintf "%s %s is positive" name m.Bench.name)
            true
            (Float.is_finite m.Bench.value && m.Bench.value > 0.0))
        r.Bench.end_to_end;
      List.iter
        (fun m ->
          check_bool
            (Printf.sprintf "%s %s is finite" name m.Bench.name)
            true (Float.is_finite m.Bench.value))
        r.Bench.per_layer)
    (Lazy.force smoke)

let count_lines path =
  let ic = open_in path in
  let rec go n = match input_line ic with _ -> go (n + 1) | exception End_of_file -> n in
  let n = go 0 in
  close_in ic;
  n

(* One line per submission, per step and per resolve step's split. *)
let test_spans () =
  let w = small hotspot in
  let tr = Loop.trace_buffers ~steps:100_000 ~submits:w.Workloads.n_txns ~resolves:10_000 in
  let r = Loop.run_rep ~trace:tr w ~seed in
  check_int "no failures" 0 r.Loop.failed;
  check_bool "some resolve steps" true (tr.Loop.n_resolves > 0);
  let path = "spans.jsonl" in
  Loop.write_spans tr path;
  check_int "span lines"
    (tr.Loop.n_submits + tr.Loop.n_steps + tr.Loop.n_resolves)
    (count_lines path)

(* --- The registry in BENCHMARK.json matches what is printed ----------- *)

type json = Obj of (string * json) list | Arr of json list | Str of string | Num of float | Lit

(* Enough JSON for BENCHMARK.json. *)
let parse_json s =
  let pos = ref 0 in
  let rec ws () =
    if !pos < String.length s && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect ch =
    ws ();
    if s.[!pos] <> ch then failwith (Printf.sprintf "expected %c at %d" ch !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while s.[!pos] <> '"' do
      if s.[!pos] = '\\' then incr pos;
      Buffer.add_char b s.[!pos];
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec items : 'a. char -> (unit -> 'a) -> 'a list -> 'a list =
   fun close item acc ->
    ws ();
    if s.[!pos] = close then begin
      incr pos;
      List.rev acc
    end
    else begin
      if acc <> [] then expect ',';
      let x = item () in
      items close item (x :: acc)
    end
  in
  let rec value () =
    ws ();
    match s.[!pos] with
    | '{' ->
        incr pos;
        Obj
          (items '}'
             (fun () ->
               let k = str () in
               expect ':';
               (k, value ()))
             [])
    | '[' ->
        incr pos;
        Arr (items ']' value [])
    | '"' -> Str (str ())
    | 't' | 'f' | 'n' ->
        while !pos < String.length s && s.[!pos] >= 'a' && s.[!pos] <= 'z' do
          incr pos
        done;
        Lit
    | _ ->
        let start = !pos in
        while !pos < String.length s && String.contains "0123456789+-.eE" s.[!pos] do
          incr pos
        done;
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  value ()

let field k = function Obj kv -> List.assoc k kv | _ -> failwith ("no field " ^ k)
let list = function Arr l -> l | _ -> failwith "expected an array"
let string = function Str s -> s | _ -> failwith "expected a string"

let spec =
  lazy
    (let ic = open_in_bin "../../BENCHMARK.json" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     parse_json s)

let entries section =
  List.map
    (fun e -> (string (field "name" e), string (field "unit" e)))
    (list (field section (Lazy.force spec)))

let valid chars s =
  s <> "" && String.for_all (fun ch -> String.contains chars ch) s

let alnum = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
let sort l = List.sort compare l

let test_registry () =
  let workloads = List.map (fun e -> string (field "name" e)) (list (field "workloads" (Lazy.force spec))) in
  Alcotest.(check (list string))
    "workloads" (sort (List.map (fun w -> w.Workloads.name) Workloads.all)) (sort workloads);
  List.iter
    (fun (_, r) ->
      List.iter
        (fun (section, printed) ->
          let printed = List.map (fun m -> (m.Bench.name, m.Bench.unit)) printed in
          List.iter
            (fun (name, unit) ->
              check_bool (name ^ " is a valid name") true (valid (alnum ^ "_.-") name);
              check_bool (name ^ " has a valid unit") true (valid (alnum ^ "_/%.-") unit))
            printed;
          Alcotest.(check (list (pair string string)))
            section (sort (entries section)) (sort printed))
        [ ("end_to_end", r.Bench.end_to_end); ("per_layer", r.Bench.per_layer) ])
    (Lazy.force smoke)

let () =
  Alcotest.run "benchmark"
    [
      ( "equivalence",
        List.map
          (fun w -> Alcotest.test_case w.Workloads.name `Quick (test_equivalent w))
          Workloads.all );
      ( "failures",
        [
          Alcotest.test_case "tick limit" `Quick test_tick_limit;
          Alcotest.test_case "stuck engine" `Quick test_stuck;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "all workloads at 1/50" `Quick test_smoke;
          Alcotest.test_case "spans file" `Quick test_spans;
        ] );
      ("registry", [ Alcotest.test_case "BENCHMARK.json" `Quick test_registry ]);
    ]
