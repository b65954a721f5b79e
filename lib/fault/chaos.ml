module Fault = Prb_fault.Fault
module Store = Prb_storage.Store
module Value = Prb_storage.Value
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Rng = Prb_util.Rng
module Lock_table = Prb_lock.Lock_table
module History = Prb_history.History
module Scheduler = Prb_core.Scheduler
module Engine = Prb_core.Engine
module Detection_policy = Prb_core.Detection_policy
module D = Prb_distrib.Dist_scheduler
module Sim = Prb_sim.Sim
module Dist_sim = Prb_distrib.Dist_sim

type engine = Centralized | Distributed

type report = {
  engine : engine;
  seed : int;
  label : string;
  plan : Fault.plan;
  commits : int;
  ticks : int;
  faults_seen : int;
  violations : string list;
}

let engine_name = function
  | Centralized -> "centralized"
  | Distributed -> "distributed"

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s%s seed %d: %d commits in %d ticks, %d faults — %s@,%a@]"
    (engine_name r.engine)
    (if String.equal r.label "" then "" else " [" ^ r.label ^ "]")
    r.seed r.commits r.ticks r.faults_seen
    (if r.violations = [] then "ok"
     else String.concat "; " r.violations)
    Fault.pp_plan r.plan

let failures = List.filter (fun r -> r.violations <> [])

(* --- The workload: bank transfers, sum of balances conserved --------- *)

let n_accounts = 12
let n_txns = 10
let balance = 100
let n_sites = 3
let max_ticks = 50_000

let accounts = List.init n_accounts (fun i -> Printf.sprintf "a%02d" i)

let fresh_store () =
  Store.of_list (List.map (fun a -> (a, Value.int balance)) accounts)

let conserved =
  Store.Constraint.sum_preserved ~name:"balance sum" accounts
    ~expected:(n_accounts * balance)

(* Transfers lock their two accounts in draw order, not canonical order —
   deadlocks are the point, not a bug, here. *)
let transfer_programs ~seed =
  let rng = Rng.make (0x7472616e lxor seed) in
  List.init n_txns (fun k ->
      let i = Rng.int rng n_accounts in
      let j = (i + 1 + Rng.int rng (n_accounts - 1)) mod n_accounts in
      let src = List.nth accounts i and dst = List.nth accounts j in
      let amt = 1 + Rng.int rng 10 in
      Program.make
        ~name:(Printf.sprintf "x%02d" k)
        ~locals:[ ("s", Value.int 0); ("d", Value.int 0) ]
        [
          Program.lock_x src;
          Program.lock_x dst;
          Program.read src "s";
          Program.read dst "d";
          Program.write src Expr.(var "s" - int amt);
          Program.write dst Expr.(var "d" + int amt);
        ])

(* --- One execution, one fingerprint ---------------------------------- *)

(* Everything an invariant check or a replay comparison needs. *)
type execution = {
  x_commits : int;
  x_ticks : int;
  x_faults : int;
  x_all_committed : bool;
  x_serializable : bool;
  x_witness_ok : bool;
      (** a serializable verdict came with a serial-order witness — guards
          the streaming checker's verdict/witness agreement *)
  x_residual_locks : (string * int) list;  (** entity, holders+waiters *)
  x_store : (Store.entity * Value.t) list;
  x_sum_ok : bool;
  x_stuck : string option;
  x_max_rollbacks : int;  (** worst-hit transaction's rollback count *)
  x_starved_fallbacks : int;  (** starvation-guard overrides *)
  x_forced_restarts : int;
      (** restarts outside victim selection (degraded-mode timeout
          aborts), which the starvation bound must excuse *)
}

let residual_locks store locks =
  List.filter_map
    (fun e ->
      let x = Store.id store e in
      match
        List.length (Lock_table.holders locks x)
        + List.length (Lock_table.waiters locks x)
      with
      | 0 -> None
      | n -> Some (e, n))
    accounts

(* The one fingerprint of a finished run, over the record both engines
   report. [faults_seen] is the documented sum; each engine leaves the
   counters it has no use for at 0. Every program was admitted before the
   first step, so all committed means [n_txns] commits. *)
let execution ~stuck (e : Sim.engine) store =
  let s = e.stats () and history = e.history in
  let serializable = History.serializable history in
  {
    x_commits = s.commits;
    x_ticks = s.ticks;
    x_faults =
      s.msgs_lost + s.msgs_duplicated + s.site_crashes + s.txn_crashes
      + s.missed_passes;
    x_all_committed = e.n_committed () = n_txns;
    x_serializable = serializable;
    x_witness_ok =
      (not serializable)
      || Option.is_some (History.equivalent_serial_order history);
    x_residual_locks = residual_locks store e.lock_table;
    x_store = Store.snapshot store;
    x_sum_ok = Store.Constraint.holds conserved store;
    x_stuck = stuck;
    x_max_rollbacks = s.max_txn_rollbacks;
    x_starved_fallbacks = s.starvation_fallbacks;
    x_forced_restarts = s.timeouts;
  }

let stuck_of run =
  try
    run ();
    None
  with Engine.Stuck msg -> Some msg

(* Both engines run the same programs through the one closed loop, every
   program admitted at once. *)
let execute ?(detection = Detection_policy.Eager) ?starvation_limit engine
    ~seed plan =
  let store = fresh_store () in
  let faults = Some plan in
  let e =
    match engine with
    | Centralized ->
        Sim.central
          (Scheduler.create
             ~config:
               {
                 Scheduler.default_config with
                 seed;
                 max_ticks;
                 faults;
                 detection;
                 starvation_limit;
               }
             store)
    | Distributed ->
        Dist_sim.engine
          (D.create
             {
               D.default_config with
               n_sites;
               seed;
               max_ticks;
               faults;
               detection_policy = detection;
               starvation_limit;
             }
             store)
  in
  let stuck =
    stuck_of (fun () -> Sim.drive e ~mpl:n_txns (transfer_programs ~seed))
  in
  execution ~stuck e store

let check x =
  let v = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> v := m :: !v) fmt in
  (match x.x_stuck with
  | Some msg -> fail "stuck: %s" msg
  | None -> ());
  if not x.x_all_committed then
    fail "stuck transactions: only %d/%d committed" x.x_commits n_txns;
  if not x.x_serializable then fail "committed history not serializable";
  if not x.x_witness_ok then
    fail "serializable verdict without a serial-order witness";
  if not x.x_sum_ok then fail "balance sum not conserved";
  (* Residual rows are orphans only once every owner is gone. *)
  if x.x_all_committed && x.x_residual_locks <> [] then
    fail "orphaned locks on %s"
      (String.concat ","
         (List.map (fun (e, n) -> Printf.sprintf "%s(%d)" e n)
            x.x_residual_locks));
  List.rev !v

let same_execution a b =
  a.x_commits = b.x_commits && a.x_ticks = b.x_ticks
  && a.x_faults = b.x_faults
  && a.x_residual_locks = b.x_residual_locks
  && List.for_all2
       (fun (e1, v1) (e2, v2) -> String.equal e1 e2 && Value.equal v1 v2)
       a.x_store b.x_store

let run_one engine ~seed ~plan =
  let x = execute engine ~seed plan in
  let x' = execute engine ~seed plan in
  let violations =
    check x
    @ if same_execution x x' then [] else [ "replay diverged from first run" ]
  in
  {
    engine;
    seed;
    label = "";
    plan;
    commits = x.x_commits;
    ticks = x.x_ticks;
    faults_seen = x.x_faults;
    violations;
  }

let sweep ?(horizon = 400) ~seeds () =
  List.concat_map
    (fun seed ->
      let central = Fault.random ~seed ~horizon () in
      let distrib = Fault.random ~n_sites ~seed ~horizon () in
      [
        run_one Centralized ~seed ~plan:central;
        run_one Distributed ~seed ~plan:distrib;
      ])
    (List.init seeds (fun s -> s))

(* --- The detection-policy x outage matrix ----------------------------- *)

(* Low enough that the guard is actually exercised on this workload, high
   enough that resolution never needs an immune victim on clean plans. *)
let starvation_k = 4

(* The no-starvation bound: with the guard at [k] and no fallback
   resolutions, no transaction can be rolled back more than [k] times as
   a victim — any excess must be covered by restarts that bypass victim
   selection entirely (degraded-mode timeout aborts). *)
let check_starvation x =
  if
    x.x_starved_fallbacks = 0
    && x.x_max_rollbacks > starvation_k + x.x_forced_restarts
  then
    [
      Printf.sprintf
        "starvation bound violated: a txn rolled back %d times (limit %d, \
         forced restarts %d)"
        x.x_max_rollbacks starvation_k x.x_forced_restarts;
    ]
  else []

(* An outage-only plan: the detector service is dark for a window long
   enough to cover several scheduled passes of every policy, and nothing
   else fails — so any violation is attributable to detection scheduling,
   not to crash recovery. *)
let outage_only_plan ~seed =
  {
    Fault.none with
    Fault.fault_seed = seed;
    detector_outages = [ { Fault.out_from = 60; out_until = 800 } ];
  }

let run_one_policy engine ~seed ~detection ~outage =
  let plan = if outage then outage_only_plan ~seed else Fault.none in
  let x =
    execute ~detection ~starvation_limit:starvation_k engine ~seed plan
  in
  let x' =
    execute ~detection ~starvation_limit:starvation_k engine ~seed plan
  in
  let violations =
    check x @ check_starvation x
    @ if same_execution x x' then [] else [ "replay diverged from first run" ]
  in
  {
    engine;
    seed;
    label =
      Detection_policy.to_string detection
      ^ (if outage then "/outage" else "/clean");
    plan;
    commits = x.x_commits;
    ticks = x.x_ticks;
    faults_seen = x.x_faults;
    violations;
  }

let policy_matrix ~seeds () =
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun detection ->
          List.concat_map
            (fun outage ->
              [
                run_one_policy Centralized ~seed ~detection ~outage;
                run_one_policy Distributed ~seed ~detection ~outage;
              ])
            [ false; true ])
        Detection_policy.all)
    (List.init seeds (fun s -> s))
