(* The benchmark's own closed loop. It mirrors [Sim.run] and
   [Dist_sim.run] step for step — keep [mpl] transactions admitted,
   refill after every commit, stop when [step] says the run is over — so
   that it can time each call it makes into the engines and read their
   counters between calls. Nothing here reaches inside the libraries. *)

module Scheduler = Prb_core.Scheduler
module Resolver = Prb_core.Resolver
module D = Prb_distrib.Dist_scheduler
module Lock_table = Prb_lock.Lock_table
module Txn_state = Prb_rollback.Txn_state
module History = Prb_history.History
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Generator = Prb_workload.Generator

(* Nanoseconds from a monotonic clock. [Unix.gettimeofday] resolves
   microseconds, too coarse for steps that take 0.4-50 us. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let seconds ns = float_of_int ns *. 1e-9
let ns_of_seconds s = int_of_float (s *. 1e9)

type engine = Central of Scheduler.t | Distrib of D.t * int  (** sites *)

let create (w : Workloads.t) ~clock store =
  match w.engine with
  | Workloads.Central c ->
      Central (Scheduler.create ~config:{ c with clock } store)
  | Workloads.Distrib c -> Distrib (D.create { c with clock } store, c.D.n_sites)

(* Home sites round-robin in submission order, as [Dist_sim.run] does. *)
let submit e i p =
  match e with
  | Central s -> Scheduler.submit s p
  | Distrib (d, sites) -> D.submit d ~home:(i mod sites) p

let step = function Central s -> Scheduler.step s | Distrib (d, _) -> D.step d

let n_committed = function
  | Central s -> Scheduler.n_committed s
  | Distrib (d, _) -> D.n_committed d

let now = function Central s -> Scheduler.now s | Distrib (d, _) -> D.now d

let lock_table = function
  | Central s -> Scheduler.lock_table s
  | Distrib (d, _) -> D.lock_table d

let history = function
  | Central s -> Scheduler.history s
  | Distrib (d, _) -> D.history d

let txn_state e id =
  match e with
  | Central s -> Scheduler.txn_state s id
  | Distrib (d, _) -> D.txn_state d id

let committed e id =
  match Txn_state.phase (txn_state e id) with
  | Txn_state.Committed -> true
  | Txn_state.Growing | Txn_state.Shrinking -> false

(* What a run did, in simulated terms. Identical on every repetition of
   one workload and seed, traced or not; a change to it is a change of
   behaviour. [messages] is 0 on the central engine. *)
type outcome = {
  ticks : int;
  commits : int;
  deadlocks : int;
  rollbacks : int;
  ops_lost : int;
  ops_executed : int;
  messages : int;
}

(* Counters the engines already expose, read once a repetition ends.
   The distributed engine counts neither requeues nor overshoot; both
   read 0 there. *)
type counters = {
  outcome : outcome;
  ops_committed : int;
  requests : int;
  blocks : int;
  upgrades : int;
  check_s : float;
  check_calls : int;
  enumerate_s : float;
  enumerate_calls : int;
  requeues : int;
  overshoot_ops : int;
  peak_copies : int;
  global_deadlocks : int;
}

let counters e ~submitted =
  let lt = lock_table e in
  let requests = Lock_table.n_requests lt
  and blocks = Lock_table.n_blocks lt
  and upgrades = Lock_table.n_upgrades lt in
  match e with
  | Central s ->
      let st = Scheduler.stats s in
      {
        outcome =
          {
            ticks = st.Scheduler.ticks;
            commits = st.Scheduler.commits;
            deadlocks = st.Scheduler.deadlocks;
            rollbacks = st.Scheduler.rollbacks;
            ops_lost = st.Scheduler.ops_lost;
            ops_executed = st.Scheduler.ops_executed;
            messages = 0;
          };
        ops_committed = st.Scheduler.ops_committed;
        requests;
        blocks;
        upgrades;
        check_s = Scheduler.check_seconds s;
        check_calls = Scheduler.check_calls s;
        enumerate_s = Scheduler.enumerate_seconds s;
        enumerate_calls = Scheduler.enumerate_calls s;
        requeues = st.Scheduler.requeues;
        overshoot_ops = st.Scheduler.overshoot_ops;
        peak_copies = st.Scheduler.peak_copies;
        global_deadlocks = 0;
      }
  | Distrib (d, _) ->
      let st = D.stats d in
      let executed = ref 0 and committed_ops = ref 0 and peak = ref 0 in
      for id = 0 to submitted - 1 do
        let ts = D.txn_state d id in
        executed := !executed + Txn_state.total_executed ts;
        peak := max !peak (Txn_state.peak_copies ts);
        if committed e id then
          committed_ops :=
            !committed_ops + Program.length (Txn_state.program ts)
      done;
      {
        outcome =
          {
            ticks = st.D.ticks;
            commits = st.D.commits;
            deadlocks = st.D.deadlocks;
            rollbacks = st.D.rollbacks;
            ops_lost = st.D.ops_lost;
            ops_executed = !executed;
            messages = st.D.messages;
          };
        ops_committed = !committed_ops;
        requests;
        blocks;
        upgrades;
        check_s = st.D.check_seconds;
        check_calls = st.D.check_calls;
        enumerate_s = st.D.enumerate_seconds;
        enumerate_calls = st.D.enumerate_calls;
        requeues = 0;
        overshoot_ops = 0;
        peak_copies = !peak;
        global_deadlocks = st.D.global_deadlocks;
      }

(* --- Spans of the traced repetition ---------------------------------- *)

(* Each step is classed by which counters moved during it, first match
   wins: the deadlock hook fired, a transaction committed, a lock
   request blocked, a lock request was granted, anything else (data
   operations, unlocks, detector and message events). *)
let exec = 0
let lock = 1
let block = 2
let commit = 3
let resolve = 4
let class_names = [| "exec"; "lock"; "block"; "commit"; "resolve" |]

(* Spans live in arrays sized before the repetition starts (from the
   warm-up's counts, which the traced repetition repeats exactly), so
   recording one is a few stores. Times are nanoseconds from the start
   of the engine loop. *)
type trace = {
  step_start : int array;
  step_stop : int array;
  step_class : Bytes.t;
  mutable n_steps : int;
  sub_txn : int array;
  sub_start : int array;
  sub_stop : int array;
  mutable n_submits : int;
  (* per resolve step: its index and the split of its time *)
  rs_step : int array;
  rs_decide : int array;
  rs_apply : int array;
  rs_check : int array;
  rs_enumerate : int array;
  mutable n_resolves : int;
  mutable overflow : bool;
  (* deadlock-hook tallies *)
  mutable rounds : int;
  mutable cycles : int;
  mutable victims : int;
  mutable optimal : int;
  mutable retained_peak : int;
  (* state of the step in flight: hook calls so far, time of the
     first, and check/enumerate seconds at step start (0, 1) and at the
     first hook call (2, 3) *)
  mutable step_rounds : int;
  mutable hook_ns : int;
  marks : float array;
}

let trace_buffers ~steps ~submits ~resolves =
  {
    step_start = Array.make steps 0;
    step_stop = Array.make steps 0;
    step_class = Bytes.make steps '\000';
    n_steps = 0;
    sub_txn = Array.make submits 0;
    sub_start = Array.make submits 0;
    sub_stop = Array.make submits 0;
    n_submits = 0;
    rs_step = Array.make resolves 0;
    rs_decide = Array.make resolves 0;
    rs_apply = Array.make resolves 0;
    rs_check = Array.make resolves 0;
    rs_enumerate = Array.make resolves 0;
    n_resolves = 0;
    overflow = false;
    rounds = 0;
    cycles = 0;
    victims = 0;
    optimal = 0;
    retained_peak = 0;
    step_rounds = 0;
    hook_ns = 0;
    marks = Array.make 4 0.0;
  }

let hook tr s ~requester:_ ~cycles ~decision =
  if tr.step_rounds = 0 then begin
    tr.hook_ns <- now_ns ();
    tr.marks.(2) <- Scheduler.check_seconds s;
    tr.marks.(3) <- Scheduler.enumerate_seconds s
  end;
  tr.step_rounds <- tr.step_rounds + 1;
  tr.rounds <- tr.rounds + 1;
  tr.cycles <- tr.cycles + List.length cycles;
  tr.victims <- tr.victims + List.length decision.Resolver.victims;
  if decision.Resolver.optimal then tr.optimal <- tr.optimal + 1

(* A resolve step splits into wfg check and cycle enumeration (the
   engine's own clocked counters), victim choice up to the first hook
   call, and rollback from the first hook call to the end of the step.
   Later rounds of a multi-round step count as rollback, less their
   check and enumerate time. *)
let detection_seconds = function
  | Central s -> (Scheduler.check_seconds s, Scheduler.enumerate_seconds s)
  | Distrib _ -> (0.0, 0.0)

let record_resolve tr e i ~start ~stop =
  let check_now, enum_now = detection_seconds e in
  let m = tr.marks in
  let k = tr.n_resolves in
  if k >= Array.length tr.rs_step then tr.overflow <- true
  else begin
    let before = ns_of_seconds (m.(2) -. m.(0) +. (m.(3) -. m.(1))) in
    let after = ns_of_seconds (check_now -. m.(2) +. (enum_now -. m.(3))) in
    tr.rs_step.(k) <- i;
    tr.rs_decide.(k) <- tr.hook_ns - start - before;
    tr.rs_apply.(k) <- stop - tr.hook_ns - after;
    tr.rs_check.(k) <- ns_of_seconds (check_now -. m.(0));
    tr.rs_enumerate.(k) <- ns_of_seconds (enum_now -. m.(1));
    tr.n_resolves <- k + 1
  end

let mark_detection tr e =
  let check, enum = detection_seconds e in
  tr.marks.(0) <- check;
  tr.marks.(1) <- enum

(* --- One repetition ---------------------------------------------------- *)

type rep = {
  populate_s : float;
  generate_s : float;
  engine_s : float;  (** the closed loop, first admission to last step *)
  attempted : int;  (** the workload's programs, all of which should commit *)
  committed : int;
  error : string option;
      (** why the repetition is not a clean success, if it is not *)
  failed : int;  (** transactions uncommitted or unverified *)
  verdict_s : float;  (** [History.serializable] + [equivalent_serial_order] *)
  counters : counters;
  steps : int;
  latency_ns : int array;  (** submit to commit, one per commit *)
  latency_ticks : int array;
  alloc_words : float;  (** minor + major - promoted, engine loop only *)
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  live_words : int option;
      (** reachable heap words when the loop ends, warm-up only *)
}

let allocated (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The final database state of a serial execution, in [order], of the
   same programs on a fresh store. *)
let serial_state (w : Workloads.t) programs order =
  let store = Generator.populate w.params in
  let s =
    Scheduler.create
      ~config:{ Scheduler.default_config with max_ticks = max_int }
      store
  in
  List.iter
    (fun id ->
      ignore (Scheduler.submit s programs.(id));
      Scheduler.run s)
    order;
  if Scheduler.all_committed s then Some store else None

(* [warm_up] adds two untimed checks: the heap the finished engine keeps
   reachable, and the final state against a serial execution. *)
let run_rep ?trace ?(warm_up = false) (w : Workloads.t) ~seed =
  (* Every repetition starts from a collected heap, so none pays for the
     garbage of the one before. *)
  Gc.full_major ();
  let t0 = now_ns () in
  let store = Generator.populate w.params in
  let t1 = now_ns () in
  let programs = Array.of_list (Generator.generate w.params ~seed ~n:w.n_txns) in
  let t2 = now_ns () in
  let eng =
    create w store ~clock:(Option.map (fun _ -> clock) trace)
  in
  (match (trace, eng) with
  | Some tr, Central s -> Scheduler.set_deadlock_hook s (hook tr s)
  | _ -> ());
  let n = Array.length programs in
  let live = Array.make w.mpl (-1) in
  let sub_ns = Array.make n 0 and sub_tick = Array.make n 0 in
  let lat_ns = Array.make n 0 and lat_ticks = Array.make n 0 in
  let n_lat = ref 0 in
  let next = ref 0 and n_done = ref 0 and steps = ref 0 in
  let gc0 = Gc.quick_stat () in
  let e0 = now_ns () in
  let rec free_slot k = if live.(k) < 0 then k else free_slot (k + 1) in
  (* Untraced repetitions charge [stamp], the time of the commit that
     made room, as the submission time; traced ones time the call. *)
  let admit i stamp =
    let id =
      match trace with
      | None ->
          let id = submit eng i programs.(i) in
          sub_ns.(id) <- stamp;
          id
      | Some tr ->
          let a = now_ns () in
          let id = submit eng i programs.(i) in
          let b = now_ns () in
          let k = tr.n_submits in
          tr.sub_txn.(k) <- id;
          tr.sub_start.(k) <- a - e0;
          tr.sub_stop.(k) <- b - e0;
          tr.n_submits <- k + 1;
          sub_ns.(id) <- a;
          id
    in
    sub_tick.(id) <- now eng;
    live.(free_slot 0) <- id
  in
  (* Admit until [mpl] transactions are live. *)
  let refill stamp =
    while !next < n && !next - !n_done < w.mpl do
      admit !next stamp;
      incr next
    done
  in
  let on_commits stamp =
    let tick = now eng in
    for k = 0 to w.mpl - 1 do
      let id = live.(k) in
      if id >= 0 && committed eng id then begin
        live.(k) <- -1;
        lat_ns.(!n_lat) <- stamp - sub_ns.(id);
        lat_ticks.(!n_lat) <- tick - sub_tick.(id);
        incr n_lat
      end
    done
  in
  let error =
    try
      refill e0;
      (match trace with
      | None ->
          let more = ref true in
          while !more do
            more := step eng;
            incr steps;
            let c = n_committed eng in
            if c <> !n_done then begin
              let stamp = now_ns () in
              on_commits stamp;
              n_done := c;
              if !more then refill stamp
            end
          done
      | Some tr ->
          let lt = lock_table eng in
          let hist = history eng in
          let more = ref true in
          mark_detection tr eng;
          while !more do
            let requests = Lock_table.n_requests lt
            and blocks = Lock_table.n_blocks lt in
            tr.step_rounds <- 0;
            let a = now_ns () in
            more := step eng;
            let b = now_ns () in
            let i = !steps in
            incr steps;
            let c = n_committed eng in
            let cls =
              if tr.step_rounds > 0 then resolve
              else if c <> !n_done then commit
              else if Lock_table.n_blocks lt <> blocks then block
              else if Lock_table.n_requests lt <> requests then lock
              else exec
            in
            if i < Array.length tr.step_start then begin
              tr.step_start.(i) <- a - e0;
              tr.step_stop.(i) <- b - e0;
              Bytes.unsafe_set tr.step_class i (Char.unsafe_chr cls);
              tr.n_steps <- i + 1
            end
            else tr.overflow <- true;
            if cls = resolve then record_resolve tr eng i ~start:a ~stop:b;
            mark_detection tr eng;
            if c <> !n_done then begin
              on_commits b;
              n_done := c;
              tr.retained_peak <-
                max tr.retained_peak (History.n_retained_intervals hist);
              if !more then refill b
            end
          done);
      None
    with
    | Scheduler.Stuck msg | D.Stuck msg -> Some ("stuck: " ^ msg)
  in
  let e1 = now_ns () in
  let gc1 = Gc.quick_stat () in
  let live_words =
    if warm_up then begin
      Gc.full_major ();
      Some (Gc.stat ()).Gc.live_words
    end
    else None
  in
  let hist = history eng in
  let v0 = now_ns () in
  let serializable = History.serializable hist in
  let order = History.equivalent_serial_order hist in
  let v1 = now_ns () in
  let counters = counters eng ~submitted:!next in
  (* A transaction fails when it did not commit or cannot be verified; a
     failed check on the whole history fails every transaction of the
     repetition. The serial replay runs after the last use of [eng], so
     the two engines are never live together. *)
  let error, failed =
    match (error, order) with
    | Some _, _ -> (error, n)
    | None, _ when not serializable -> (Some "committed history not serializable", n)
    | None, None -> (Some "no equivalent serial order", n)
    | None, Some _ when !n_done < n ->
        ( Some (Printf.sprintf "%d of %d transactions uncommitted" (n - !n_done) n),
          n - !n_done )
    | None, Some order when warm_up -> (
        match serial_state w programs order with
        | Some serial when Store.equal_state store serial -> (None, 0)
        | Some _ -> (Some "final state differs from the serial execution", n)
        | None -> (Some "serial execution did not finish", n))
    | None, Some _ -> (None, 0)
  in
  {
    populate_s = seconds (t1 - t0);
    generate_s = seconds (t2 - t1);
    engine_s = seconds (e1 - e0);
    attempted = n;
    committed = !n_done;
    error;
    failed;
    verdict_s = seconds (v1 - v0);
    counters;
    steps = !steps;
    latency_ns = Array.sub lat_ns 0 !n_lat;
    latency_ticks = Array.sub lat_ticks 0 !n_lat;
    alloc_words = allocated gc1 -. allocated gc0;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    live_words;
  }

(* --- Reading the spans back --------------------------------------------- *)

let class_ns tr cls =
  let total = ref 0 and count = ref 0 in
  for i = 0 to tr.n_steps - 1 do
    if Char.code (Bytes.get tr.step_class i) = cls then begin
      total := !total + (tr.step_stop.(i) - tr.step_start.(i));
      incr count
    end
  done;
  (!total, !count)

let sum a n =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + a.(i)
  done;
  !s

let submit_ns tr = sum tr.sub_stop tr.n_submits - sum tr.sub_start tr.n_submits
let decide_ns tr = sum tr.rs_decide tr.n_resolves
let apply_ns tr = sum tr.rs_apply tr.n_resolves

(* One JSON object per line: submissions first, then steps, each resolve
   step followed by its split. *)
let write_spans tr path =
  let oc = open_out path in
  for k = 0 to tr.n_submits - 1 do
    Printf.fprintf oc
      "{\"span\":\"submit\",\"txn\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
      tr.sub_txn.(k) tr.sub_start.(k) tr.sub_stop.(k)
  done;
  let r = ref 0 in
  for i = 0 to tr.n_steps - 1 do
    Printf.fprintf oc
      "{\"span\":\"step\",\"step\":%d,\"class\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
      i
      class_names.(Char.code (Bytes.get tr.step_class i))
      tr.step_start.(i) tr.step_stop.(i);
    if !r < tr.n_resolves && tr.rs_step.(!r) = i then begin
      Printf.fprintf oc
        "{\"span\":\"resolve\",\"step\":%d,\"check_ns\":%d,\"enumerate_ns\":%d,\"decide_ns\":%d,\"apply_ns\":%d}\n"
        i tr.rs_check.(!r) tr.rs_enumerate.(!r) tr.rs_decide.(!r)
        tr.rs_apply.(!r);
      incr r
    end
  done;
  close_out oc
