(* Tests for Prb_rollback: history stacks, the static SDG analysis, and
   the transaction runtime — including oracle-based properties: a rollback
   to any well-defined state must restore exactly the values the
   transaction had there, and re-execution after a rollback must commit
   the same final values as an undisturbed run. *)

module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Strategy = Prb_rollback.Strategy
module History_stack = Prb_rollback.History_stack
module Sdg_view = Prb_rollback.Sdg_view
module Txn_state = Prb_rollback.Txn_state
module Rng = Prb_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkil = Alcotest.(check (list int))

let vint = Value.int

(* --- Strategy --- *)

let test_strategy_roundtrip () =
  List.iter
    (fun s ->
      checkb "of_string inverts to_string" true
        (Strategy.of_string (Strategy.to_string s) = Some s))
    [ Strategy.Total; Strategy.Mcs; Strategy.Sdg; Strategy.Sdg_k 0; Strategy.Sdg_k 7 ];
  checkb "garbage" true (Strategy.of_string "bogus" = None);
  checkb "negative k" true (Strategy.of_string "sdg+-1" = None)

let test_strategy_budget () =
  checki "total" 1 (Strategy.version_budget Strategy.Total);
  checki "sdg" 1 (Strategy.version_budget Strategy.Sdg);
  checki "sdg+3" 4 (Strategy.version_budget (Strategy.Sdg_k 3));
  checkb "mcs unbounded" true (Strategy.version_budget Strategy.Mcs = max_int)

(* --- History_stack --- *)

let test_hs_initial () =
  let h = History_stack.create ~budget:max_int ~created_at:2 ~initial:(vint 10) in
  checkb "current = initial" true (Value.equal (History_stack.current h) (vint 10));
  checki "no versions" 0 (History_stack.n_versions h);
  checki "one copy (the saved initial)" 1 (History_stack.n_copies h);
  checkb "restorable everywhere" true
    (List.for_all (History_stack.is_restorable h) [ 0; 1; 2; 3; 9 ])

let test_hs_write_and_value_at () =
  let h = History_stack.create ~budget:max_int ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:1 (vint 10);
  History_stack.write h ~lock_index:3 (vint 30);
  checkb "current" true (Value.equal (History_stack.current h) (vint 30));
  checkb "value at 0" true (History_stack.value_at h 0 = Some (vint 0));
  checkb "value at 1" true (History_stack.value_at h 1 = Some (vint 10));
  checkb "value at 2" true (History_stack.value_at h 2 = Some (vint 10));
  checkb "value at 3" true (History_stack.value_at h 3 = Some (vint 30));
  checkb "value at 9" true (History_stack.value_at h 9 = Some (vint 30))

let test_hs_same_segment_coalesces () =
  let h = History_stack.create ~budget:1 ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:2 (vint 1);
  History_stack.write h ~lock_index:2 (vint 2);
  checki "one version" 1 (History_stack.n_versions h);
  checkb "no damage" true (History_stack.damaged h = []);
  checkb "latest wins" true (Value.equal (History_stack.current h) (vint 2))

let test_hs_eviction_damages () =
  (* budget 1 = single live copy (the Sdg discipline) *)
  let h = History_stack.create ~budget:1 ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:1 (vint 10);
  checkb "no damage after first write" true (History_stack.damaged h = []);
  History_stack.write h ~lock_index:4 (vint 40);
  checkb "damage [1,4)" true (History_stack.damaged h = [ (1, 4) ]);
  checkb "0 restorable" true (History_stack.is_restorable h 0);
  checkb "1 destroyed" false (History_stack.is_restorable h 1);
  checkb "3 destroyed" false (History_stack.is_restorable h 3);
  checkb "4 restorable (current)" true (History_stack.is_restorable h 4);
  checkb "value_at destroyed is None" true (History_stack.value_at h 2 = None)

let test_hs_damage_merges () =
  let h = History_stack.create ~budget:1 ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:1 (vint 1);
  History_stack.write h ~lock_index:3 (vint 3);
  History_stack.write h ~lock_index:5 (vint 5);
  checkb "merged interval" true (History_stack.damaged h = [ (1, 5) ])

let test_hs_budget_k () =
  (* budget 3 = Sdg_k 2: three retained versions *)
  let h = History_stack.create ~budget:3 ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:1 (vint 1);
  History_stack.write h ~lock_index:2 (vint 2);
  History_stack.write h ~lock_index:3 (vint 3);
  checkb "all restorable with budget 3" true
    (List.for_all (History_stack.is_restorable h) [ 0; 1; 2; 3 ]);
  History_stack.write h ~lock_index:4 (vint 4);
  checkb "oldest interval damaged" true (History_stack.damaged h = [ (1, 2) ]);
  checkb "2 still restorable" true (History_stack.is_restorable h 2)

let test_hs_truncate () =
  let h = History_stack.create ~budget:max_int ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:1 (vint 1);
  History_stack.write h ~lock_index:3 (vint 3);
  History_stack.truncate h 2;
  checkb "value back to segment-1 write" true
    (Value.equal (History_stack.current h) (vint 1));
  checki "one version left" 1 (History_stack.n_versions h);
  History_stack.truncate h 0;
  checkb "back to initial" true (Value.equal (History_stack.current h) (vint 0))

let test_hs_truncate_damaged_rejected () =
  let h = History_stack.create ~budget:1 ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:1 (vint 1);
  History_stack.write h ~lock_index:4 (vint 4);
  Alcotest.check_raises "damaged target"
    (Invalid_argument "History_stack.truncate: target state is damaged")
    (fun () -> History_stack.truncate h 2)

let test_hs_peak_copies () =
  let h = History_stack.create ~budget:max_int ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:1 (vint 1);
  History_stack.write h ~lock_index:2 (vint 2);
  checki "peak = 2 versions + initial" 3 (History_stack.peak_copies h);
  History_stack.truncate h 0;
  checki "peak survives truncation" 3 (History_stack.peak_copies h)

let test_hs_coalesce_after_truncate () =
  let h = History_stack.create ~budget:max_int ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:1 (vint 1);
  History_stack.write h ~lock_index:3 (vint 3);
  History_stack.truncate h 2;
  (* The survivors of a truncate are kept as-is; a same-segment write into
     the surviving newest version coalesces in place without disturbing
     earlier states. *)
  History_stack.write h ~lock_index:1 (vint 7);
  checki "still one version" 1 (History_stack.n_versions h);
  checkb "coalesced value wins" true
    (Value.equal (History_stack.current h) (vint 7));
  checkb "initial untouched" true (History_stack.value_at h 0 = Some (vint 0));
  checkb "covers later states" true
    (History_stack.value_at h 5 = Some (vint 7))

let test_hs_backwards_write_rejected () =
  let h = History_stack.create ~budget:max_int ~created_at:0 ~initial:(vint 0) in
  History_stack.write h ~lock_index:3 (vint 3);
  Alcotest.check_raises "lock index decreased"
    (Invalid_argument "History_stack.write: lock index went backwards")
    (fun () -> History_stack.write h ~lock_index:2 (vint 2))

(* qcheck: a bounded-budget stack answers value_at exactly like an
   unbounded one wherever it claims restorability. *)
let qcheck_hs_agrees_with_unbounded =
  QCheck.Test.make ~name:"bounded stack is a sound partial view" ~count:500
    QCheck.(pair (int_range 1 4) (list (pair (int_range 0 9) small_int)))
    (fun (budget, writes) ->
      let writes =
        List.sort (fun (a, _) (b, _) -> compare a b) writes
      in
      let bounded = History_stack.create ~budget ~created_at:0 ~initial:(vint 0) in
      let full = History_stack.create ~budget:max_int ~created_at:0 ~initial:(vint 0) in
      List.iter
        (fun (w, v) ->
          History_stack.write bounded ~lock_index:w (vint v);
          History_stack.write full ~lock_index:w (vint v))
        writes;
      List.for_all
        (fun q ->
          match History_stack.value_at bounded q with
          | None -> true (* claims nothing *)
          | Some v -> History_stack.value_at full q = Some v)
        (List.init 11 Fun.id))

(* --- Sdg_view --- *)

(* lock A, write A, lock B, lock C, write A again: damage [1,3) *)
let sdg_program =
  Program.make ~name:"sdg"
    ~locals:[ ("v", vint 0) ]
    [
      Program.lock_x "A";
      Program.write "A" (Expr.int 1);
      Program.lock_x "B";
      Program.lock_x "C";
      Program.write "A" (Expr.int 2);
    ]

let test_sdg_damage_intervals () =
  checkb "interval [1,3)" true (Sdg_view.damage_intervals sdg_program = [ (1, 3) ])

let test_sdg_well_defined () =
  checkil "0 and 3" [ 0; 3 ] (Sdg_view.well_defined_states sdg_program)

let test_sdg_articulation_agrees () =
  checkil "same set via articulation points"
    (Sdg_view.well_defined_states sdg_program)
    (Sdg_view.well_defined_via_articulation sdg_program)

let test_sdg_no_writes () =
  let p =
    Program.make ~name:"ro" ~locals:[]
      [ Program.lock_s "A"; Program.lock_s "B" ]
  in
  checkil "all states well-defined" [ 0; 1; 2 ] (Sdg_view.well_defined_states p)

let test_sdg_rollback_overshoot () =
  (* releasing C (lock state 2) forces a fall-back to state 0 under a
     single-copy implementation: states 1 and 2 are damaged. *)
  checkb "overshoot 2" true (Sdg_view.rollback_overshoot sdg_program "C" = Some 2);
  checkb "A itself is fine" true (Sdg_view.rollback_overshoot sdg_program "A" = Some 0);
  checkb "unknown entity" true (Sdg_view.rollback_overshoot sdg_program "Z" = None)

(* qcheck: the two well-definedness computations agree on random
   programs. *)
let random_program seed =
  let rng = Rng.make seed in
  let n_locks = 2 + Rng.int rng 5 in
  let entities = List.init n_locks (fun i -> Printf.sprintf "E%d" i) in
  let ops = ref [] in
  List.iteri
    (fun i e ->
      ops := Program.lock_x e :: !ops;
      (* random writes to already-locked entities *)
      for _ = 0 to Rng.int rng 3 do
        let target = Rng.int rng (i + 1) in
        ops :=
          Program.write
            (Printf.sprintf "E%d" target)
            (Expr.int (Rng.int rng 100))
          :: !ops
      done)
    entities;
  Program.make ~name:(Printf.sprintf "rand%d" seed) ~locals:[] (List.rev !ops)

let qcheck_sdg_views_agree =
  QCheck.Test.make ~name:"interval and articulation views agree" ~count:500
    QCheck.small_int (fun seed ->
      let p = random_program seed in
      Sdg_view.well_defined_states p = Sdg_view.well_defined_via_articulation p)

(* --- Txn_state: driving helpers --- *)

let fresh_store () =
  Store.of_list
    (List.map
       (fun i -> (Printf.sprintf "E%d" i, vint (100 + i)))
       (List.init 8 Fun.id))

(* Grant-everything driver. *)
let advance_to ts stop_pc =
  while Txn_state.pc ts < stop_pc do
    match Txn_state.next_action ts with
    | Txn_state.Need_lock _ -> Txn_state.lock_granted ts
    | Txn_state.Data_step -> Txn_state.exec_data_op ts
    | Txn_state.Need_unlock -> ignore (Txn_state.perform_unlock ts)
    | Txn_state.At_end -> failwith "advance_to: past end"
  done

let run_to_end ts =
  let rec go () =
    match Txn_state.next_action ts with
    | Txn_state.Need_lock _ ->
        Txn_state.lock_granted ts;
        go ()
    | Txn_state.Data_step ->
        Txn_state.exec_data_op ts;
        go ()
    | Txn_state.Need_unlock ->
        ignore (Txn_state.perform_unlock ts);
        go ()
    | Txn_state.At_end -> Txn_state.commit ts
  in
  go ()

(* growing-phase program used by the unit tests below:
   pc: 0 lock E0 | 1 read E0 v | 2 write E0 | 3 lock E1 | 4 write E1
     | 5 assign v | 6 lock E2 | 7 write E0 (damages E0's states) *)
let growing_program =
  Program.make ~name:"grow"
    ~locals:[ ("v", vint 0) ]
    [
      Program.lock_x "E0";
      Program.read "E0" "v";
      Program.write "E0" Expr.(var "v" + int 1);
      Program.lock_x "E1";
      Program.write "E1" (Expr.int 5);
      Program.assign "v" Expr.(var "v" + int 100);
      Program.lock_x "E2";
      Program.write "E0" Expr.(var "v" * int 2);
    ]

let test_txn_basic_execution () =
  let store = fresh_store () in
  let ts =
    Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store growing_program
  in
  advance_to ts 8;
  checki "pc" 8 (Txn_state.pc ts);
  checki "lock index" 3 (Txn_state.lock_index ts);
  checkb "holds E0" true (Txn_state.holds ts "E0" = Some Prb_txn.Lock_mode.Exclusive);
  checkb "lock states" true
    (List.map (fun (e, _, k) -> (e, k)) (Txn_state.locks_held ts)
    = [ ("E0", 0); ("E1", 1); ("E2", 2) ]);
  (* E0 = 100 initially; read v=100; write E0 = 101; v = 200; E0 = 400 *)
  checkb "shadow value" true (Value.equal (Txn_state.read_view ts "E0") (vint 400));
  checkb "local" true (Value.equal (Txn_state.local_value ts "v") (vint 200));
  checkb "store never touched" true
    (Value.equal (Store.get store "E0") (vint 100))

let test_txn_costs () =
  let ts =
    Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store:(fresh_store ())
      growing_program
  in
  advance_to ts 8;
  (* releasing E2 (locked at state 2, pc 6): cost 8-6=2; E1 (state 1, pc 3):
     cost 5; E0 (state 0, pc 0): cost 8 *)
  checki "cost E2" 2 (Txn_state.cost_to_release ts "E2");
  checki "cost E1" 5 (Txn_state.cost_to_release ts "E1");
  checki "cost E0" 8 (Txn_state.cost_to_release ts "E0")

let test_txn_rollback_mcs_exact () =
  let store = fresh_store () in
  let ts = Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store growing_program in
  advance_to ts 8;
  let released = List.map (Store.name store) (Txn_state.rollback_to ts 1) in
  checkb "released E1, E2" true (List.sort compare released = [ "E1"; "E2" ]);
  checki "pc back to lock E1's request" 3 (Txn_state.pc ts);
  checki "lock idx" 1 (Txn_state.lock_index ts);
  (* at L_1 (before lock E1): E0 was 101, v was 100 *)
  checkb "E0 restored" true (Value.equal (Txn_state.read_view ts "E0") (vint 101));
  checkb "v restored" true (Value.equal (Txn_state.local_value ts "v") (vint 100));
  checki "ops lost" 5 (Txn_state.ops_lost ts);
  checki "one rollback" 1 (Txn_state.n_rollbacks ts)

let test_txn_rollback_restart () =
  let store = fresh_store () in
  let ts = Txn_state.create ~strategy:Strategy.Total ~id:0 ~store growing_program in
  advance_to ts 8;
  checki "total targets restart" Txn_state.restart_target
    (Txn_state.rollback_target ts "E2");
  let released = Txn_state.rollback_to ts Txn_state.restart_target in
  checki "everything released" 3 (List.length released);
  checki "pc 0" 0 (Txn_state.pc ts);
  checkb "locals reset" true (Value.equal (Txn_state.local_value ts "v") (vint 0))

let test_txn_sdg_overshoot () =
  let store = fresh_store () in
  let ts = Txn_state.create ~strategy:Strategy.Sdg ~id:0 ~store growing_program in
  advance_to ts 8;
  (* E0 written in segments 1 and 3 -> damage [1,3): states 1,2 destroyed.
     Releasing E2 (lock state 2) must overshoot to state 0. *)
  checkil "well-defined states" [ 0; 3 ] (Txn_state.well_defined_states ts);
  checki "target for E2 overshoots to 0" 0 (Txn_state.rollback_target ts "E2");
  let released = List.map (Store.name store) (Txn_state.rollback_to ts 0) in
  checkb "all three released" true
    (List.sort compare released = [ "E0"; "E1"; "E2" ]);
  checki "pc = first lock request" 0 (Txn_state.pc ts)

let test_txn_sdg_k_keeps_more () =
  let store = fresh_store () in
  let ts =
    Txn_state.create ~strategy:(Strategy.Sdg_k 2) ~id:0 ~store growing_program
  in
  advance_to ts 8;
  checkil "every state well-defined with extra copies" [ 0; 1; 2; 3 ]
    (Txn_state.well_defined_states ts);
  checki "minimal target for E2" 2 (Txn_state.rollback_target ts "E2")

let test_txn_rollback_requires_growing () =
  let store = fresh_store () in
  let p =
    Program.make ~name:"u" ~locals:[]
      [ Program.lock_x "E0"; Program.unlock "E0"; ]
  in
  let ts = Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store p in
  advance_to ts 2;
  checkb "shrinking" true (Txn_state.phase ts = Txn_state.Shrinking);
  Alcotest.check_raises "immune after unlock"
    (Invalid_argument "Txn_state.rollback_to: transaction is not in growing phase")
    (fun () -> ignore (Txn_state.rollback_to ts 0))

let test_txn_commit_values () =
  let store = fresh_store () in
  let ts = Txn_state.create ~strategy:Strategy.Sdg ~id:0 ~store growing_program in
  advance_to ts 8;
  let finals = run_to_end ts in
  checkb "committed" true (Txn_state.phase ts = Txn_state.Committed);
  let final e = List.assoc (Store.id store e) finals in
  checkb "E0 final" true (final "E0" |> Value.equal (vint 400));
  checkb "E1 final" true (final "E1" |> Value.equal (vint 5))

let test_txn_monitored_writes () =
  let store = fresh_store () in
  let three_phase =
    Program.make ~name:"tp" ~locals:[]
      [
        Program.lock_x "E0";
        Program.lock_x "E1";
        Program.write "E0" (Expr.int 1);
        Program.write "E1" (Expr.int 2);
      ]
  in
  let ts = Txn_state.create ~strategy:Strategy.Sdg ~id:0 ~store three_phase in
  advance_to ts 4;
  checki "no monitored writes in a three-phase txn" 0
    (Txn_state.monitored_writes ts);
  let ts2 =
    Txn_state.create ~strategy:Strategy.Sdg ~id:1 ~store growing_program
  in
  advance_to ts2 8;
  checkb "spread writes are monitored" true (Txn_state.monitored_writes ts2 > 0)

(* The incremental copy counter must track the histories through every
   path that touches them: shadow creation, fresh and coalescing writes,
   unlock, partial rollback (shadow drops + truncation) and restart. *)
let test_txn_copy_accounting () =
  let store = Store.of_list [ ("E0", vint 10); ("E1", vint 20) ] in
  let p =
    Program.make ~name:"copies"
      ~locals:[ ("v", vint 0) ]
      [
        Program.lock_x "E0";
        Program.write "E0" (Expr.int 1);
        Program.write "E0" (Expr.int 2);
        Program.lock_x "E1";
        Program.write "E1" (Expr.int 3);
        Program.assign "v" (Expr.int 4);
        Program.unlock "E0";
        Program.unlock "E1";
      ]
  in
  let ts = Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store p in
  checki "initial: the local's saved initial" 1 (Txn_state.current_copies ts);
  Txn_state.lock_granted ts (* lock E0: shadow initial *);
  checki "after lock E0" 2 (Txn_state.current_copies ts);
  Txn_state.exec_data_op ts (* write E0: new version *);
  checki "after first write" 3 (Txn_state.current_copies ts);
  Txn_state.exec_data_op ts (* same-segment write: coalesces *);
  checki "coalesced write adds nothing" 3 (Txn_state.current_copies ts);
  Txn_state.lock_granted ts (* lock E1 *);
  checki "after lock E1" 4 (Txn_state.current_copies ts);
  Txn_state.exec_data_op ts (* write E1 *);
  checki "after E1 write" 5 (Txn_state.current_copies ts);
  Txn_state.exec_data_op ts (* assign v *);
  checki "after assign" 6 (Txn_state.current_copies ts);
  (* Partial rollback to L_1: E1's shadow (2 copies) goes, the v version
     written at lock index 2 truncates away; E0's write at index 1 stays. *)
  let released = Txn_state.rollback_to ts 1 in
  checkb "E1 released" true (released = [ Store.id store "E1" ]);
  checki "after partial rollback" 3 (Txn_state.current_copies ts);
  checki "peak saw the high-water mark" 6 (Txn_state.peak_copies ts);
  (* Full restart: only the declared local's initial remains charged. *)
  let _ = Txn_state.rollback_to ts Txn_state.restart_target in
  checki "after restart" 1 (Txn_state.current_copies ts)

(* --- Oracle properties ------------------------------------------------ *)

(* Random growing-phase program over a few entities; locks interleaved
   with reads, writes and local computation. *)
let oracle_program seed =
  let rng = Rng.make seed in
  let n_locks = 2 + Rng.int rng 4 in
  let ops = ref [] in
  for i = 0 to n_locks - 1 do
    ops := Program.lock_x (Printf.sprintf "E%d" i) :: !ops;
    for _ = 0 to Rng.int rng 3 do
      let target = Printf.sprintf "E%d" (Rng.int rng (i + 1)) in
      match Rng.int rng 3 with
      | 0 -> ops := Program.read target "v" :: !ops
      | 1 ->
          ops :=
            Program.write target Expr.(Mix (var "v") + int (Rng.int rng 50))
            :: !ops
      | _ ->
          ops :=
            Program.assign "v" Expr.(Mix (var "v") + var "w") :: !ops
    done;
    if Rng.bool rng then
      ops := Program.assign "w" Expr.(var "w" + int 1) :: !ops
  done;
  Program.make
    ~name:(Printf.sprintf "oracle%d" seed)
    ~locals:[ ("v", vint 1); ("w", vint 2) ]
    (List.rev !ops)

(* Execute, remembering the (locals, shadow-values) snapshot at every lock
   state; the snapshot at L_k is taken just before the k-th lock request
   executes. *)
let run_with_snapshots ts =
  let snapshots = ref [] in
  let snap () =
    let locals =
      List.map
        (fun v -> (v, Txn_state.local_value ts v))
        [ "v"; "w" ]
    in
    let shadows =
      List.map
        (fun (e, _, _) -> (e, Txn_state.read_view ts e))
        (Txn_state.locks_held ts)
    in
    snapshots := (Txn_state.lock_index ts, (locals, shadows)) :: !snapshots
  in
  let rec go () =
    match Txn_state.next_action ts with
    | Txn_state.Need_lock _ ->
        snap ();
        Txn_state.lock_granted ts;
        go ()
    | Txn_state.Data_step ->
        Txn_state.exec_data_op ts;
        go ()
    | Txn_state.Need_unlock | Txn_state.At_end -> ()
  in
  go ();
  List.rev !snapshots

let snapshot_matches ts (locals, shadows) =
  List.for_all
    (fun (v, expected) -> Value.equal (Txn_state.local_value ts v) expected)
    locals
  && List.for_all
       (fun (e, expected) ->
         match Txn_state.holds ts e with
         | None -> false
         | Some _ -> Value.equal (Txn_state.read_view ts e) expected)
       shadows

let qcheck_rollback_restores_oracle strategy =
  let name =
    Printf.sprintf "rollback restores the oracle snapshot (%s)"
      (Strategy.to_string strategy)
  in
  QCheck.Test.make ~name ~count:200 QCheck.small_int (fun seed ->
      let program = oracle_program seed in
      let snapshots =
        let ts =
          Txn_state.create ~strategy ~id:0 ~store:(fresh_store ()) program
        in
        run_with_snapshots ts
      in
      let n_states = List.length snapshots in
      (* for each claimed well-defined state, replay and roll back *)
      List.for_all
        (fun q ->
          let store = fresh_store () in
          let ts = Txn_state.create ~strategy ~id:0 ~store program in
          let held_before =
            let _ = run_with_snapshots ts in
            Txn_state.locks_held ts
          in
          if not (Txn_state.well_defined ts q) then true
          else begin
            let released =
              List.map (Store.name store) (Txn_state.rollback_to ts q)
            in
            (* entities locked at state >= q released, earlier ones kept *)
            List.for_all
              (fun (e, _, k) ->
                if k >= q then List.mem e released
                else not (List.mem e released))
              held_before
            && Txn_state.lock_index ts = q
            && snapshot_matches ts (List.assoc q snapshots)
          end)
        (List.init n_states Fun.id))

let qcheck_mcs_reaches_every_state =
  QCheck.Test.make ~name:"mcs: every lock state is well-defined" ~count:200
    QCheck.small_int (fun seed ->
      let ts =
        Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store:(fresh_store ())
          (oracle_program seed)
      in
      let _ = run_with_snapshots ts in
      Txn_state.well_defined_states ts
      = List.init (Txn_state.lock_index ts + 1) Fun.id)

let qcheck_rollback_then_rerun_commits_same =
  QCheck.Test.make
    ~name:"re-execution after rollback commits identical values" ~count:200
    QCheck.(pair small_int (int_bound 4))
    (fun (seed, target_choice) ->
      let program = oracle_program seed in
      let reference =
        let ts =
          Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store:(fresh_store ())
            program
        in
        run_to_end ts
      in
      let ts =
        Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store:(fresh_store ())
          program
      in
      let _ = run_with_snapshots ts in
      let q = target_choice mod (Txn_state.lock_index ts + 1) in
      let _ = Txn_state.rollback_to ts q in
      (* re-grant and run to completion *)
      let finals = run_to_end ts in
      List.length finals = List.length reference
      && List.for_all2
           (fun (e1, v1) (e2, v2) -> e1 = e2 && Value.equal v1 v2)
           finals reference)

let qcheck_theorem3_bound =
  QCheck.Test.make
    ~name:"Theorem 3: MCS copies <= n(n+1)/2 + n*|L|" ~count:300
    QCheck.small_int (fun seed ->
      let ts =
        Txn_state.create ~strategy:Strategy.Mcs ~id:0 ~store:(fresh_store ())
          (oracle_program seed)
      in
      let _ = run_with_snapshots ts in
      let n = Txn_state.lock_index ts in
      let n_locals = 2 in
      (* our count also charges the saved initial per object: n more for
         globals, and locals can hold a version per segment 0..n plus the
         initial *)
      Txn_state.peak_copies ts
      <= (n * (n + 1) / 2) + n + ((n + 2) * n_locals))

let qcheck_single_copy_space =
  QCheck.Test.make ~name:"Total/Sdg keep one copy per object" ~count:200
    QCheck.small_int (fun seed ->
      List.for_all
        (fun strategy ->
          let ts =
            Txn_state.create ~strategy ~id:0 ~store:(fresh_store ())
              (oracle_program seed)
          in
          let _ = run_with_snapshots ts in
          let n = Txn_state.lock_index ts in
          (* per object: one live version + the saved initial *)
          Txn_state.peak_copies ts <= 2 * (n + 2))
        [ Strategy.Total; Strategy.Sdg ])

let qcheck_runtime_sdg_matches_static =
  QCheck.Test.make
    ~name:"runtime well-defined set = static Sdg_view on completed growth"
    ~count:300 QCheck.small_int (fun seed ->
      let program = oracle_program seed in
      let ts =
        Txn_state.create ~strategy:Strategy.Sdg ~id:0 ~store:(fresh_store ())
          program
      in
      let _ = run_with_snapshots ts in
      Txn_state.well_defined_states ts = Sdg_view.well_defined_states program)

(* The set-valued rollback target is the minimum of the per-entity
   targets, under every strategy and for any subset of the held entities;
   an unheld entity anywhere in the set still raises. The per-entity
   target is worked out here from the strategy's definition: restart for
   Total, the entity's lock state for MCS, the nearest well-defined state
   at or below it for SDG. *)
let qcheck_rollback_target_all =
  QCheck.Test.make ~name:"set rollback target = per-entity minimum"
    ~count:300
    QCheck.(pair small_int (int_bound 63))
    (fun (seed, mask) ->
      List.for_all
        (fun strategy ->
          let ts =
            Txn_state.create ~strategy ~id:0 ~store:(fresh_store ())
              (oracle_program seed)
          in
          let _ = run_with_snapshots ts in
          let subset =
            List.filteri
              (fun i _ -> mask land (1 lsl i) <> 0)
              (List.map (fun (e, _, _) -> e) (Txn_state.locks_held ts))
          in
          let raises es =
            match Txn_state.rollback_target_all ts es with
            | _ -> false
            | exception Invalid_argument _ -> true
          in
          let target e =
            let k = Option.get (Txn_state.lock_state_of ts e) in
            match strategy with
            | Strategy.Total -> Txn_state.restart_target
            | Strategy.Mcs -> k
            | Strategy.Sdg | Strategy.Sdg_k _ ->
                let rec best q =
                  if q < 0 || Txn_state.well_defined ts q then q
                  else best (q - 1)
                in
                best k
          in
          Txn_state.rollback_target_all ts subset
          = List.fold_left
              (fun acc e -> min acc (target e))
              (Txn_state.lock_index ts) subset
          && List.for_all
               (fun e -> Txn_state.rollback_target ts e = target e)
               subset
          && raises ("E9" :: subset)
          && raises (subset @ [ "E9" ]))
        [
          Strategy.Total;
          Strategy.Mcs;
          Strategy.Sdg;
          Strategy.Sdg_k 0;
          Strategy.Sdg_k 1;
        ])

(* --- Allocation (the paper's closing question) ------------------------ *)

module Allocation = Prb_rollback.Allocation

(* lock A..D; A written in segments 1,2,4; B in 2,3 *)
let alloc_program =
  Program.make ~name:"alloc"
    ~locals:[]
    [
      Program.lock_x "A";
      Program.write "A" (Expr.int 1);
      Program.lock_x "B";
      Program.write "A" (Expr.int 2);
      Program.write "B" (Expr.int 3);
      Program.lock_x "C";
      Program.write "B" (Expr.int 4);
      Program.lock_x "D";
      Program.write "A" (Expr.int 5);
    ]

let test_alloc_chunks () =
  let cs = Allocation.chunks alloc_program in
  (* A: segments 1,2,4 -> chunks [2,4) then [1,2); B: 2,3 -> [2,3) *)
  checkb "A chunks" true (List.assoc "G:A" cs = [ (2, 4); (1, 2) ]);
  checkb "B chunks" true (List.assoc "G:B" cs = [ (2, 3) ])

let test_alloc_zero_matches_sdg_view () =
  checkil "baseline = Sdg_view"
    (Sdg_view.well_defined_states alloc_program)
    (Allocation.well_defined_with alloc_program ~allocation:(fun _ -> 0))

let test_alloc_full_funding_restores_everything () =
  let n = Program.n_locks alloc_program in
  checkil "all states"
    (List.init (n + 1) Fun.id)
    (Allocation.well_defined_with alloc_program ~allocation:(fun _ -> 99))

let test_alloc_greedy_spends_where_it_pays () =
  (* one copy: A's newest chunk [2,4) frees states 2 and 3 — more than
     B's [2,3) which overlaps A's damage anyway *)
  let a1 = Allocation.greedy alloc_program ~budget:1 in
  checkb "first copy goes to A" true (Allocation.lookup a1 "G:A" = 1);
  checki "gain 1 state (3; 2 is still damaged by B)" 1
    (Allocation.gain alloc_program a1);
  let a3 = Allocation.greedy alloc_program ~budget:3 in
  checki "three copies free every state" 3 (Allocation.gain alloc_program a3)

let test_alloc_exact_small () =
  let e2 = Allocation.exact alloc_program ~budget:2 in
  (* two copies: best is A's newest + B's chunk, freeing 2 and 3 *)
  checki "exact gain with 2" 2 (Allocation.gain alloc_program e2)

let qcheck_alloc_greedy_sound =
  QCheck.Test.make
    ~name:"greedy never beats the exhaustive optimum and respects budgets"
    ~count:200
    QCheck.(pair small_int (int_bound 4))
    (fun (seed, budget) ->
      let p = random_program seed in
      let g = Allocation.greedy p ~budget in
      let e = Allocation.exact p ~budget in
      let spend a = List.fold_left (fun acc (_, n) -> acc + n) 0 a in
      Allocation.gain p g <= Allocation.gain p e
      && spend g <= budget
      && spend e <= budget)

let qcheck_alloc_monotone =
  QCheck.Test.make ~name:"allocation gain is monotone in budget" ~count:200
    QCheck.small_int (fun seed ->
      let p = random_program seed in
      let gains =
        List.map (fun b -> Allocation.gain p (Allocation.greedy p ~budget:b))
          [ 0; 1; 2; 3; 4 ]
      in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing gains)

let qcheck_alloc_runtime_agreement =
  QCheck.Test.make
    ~name:"runtime honours the allocation (static = dynamic)" ~count:200
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, budget) ->
      let p = oracle_program seed in
      let alloc = Allocation.greedy p ~budget in
      let ts =
        Txn_state.create
          ~copy_allocation:(Allocation.lookup alloc)
          ~strategy:Strategy.Sdg ~id:0 ~store:(fresh_store ()) p
      in
      let _ = run_with_snapshots ts in
      Txn_state.well_defined_states ts
      = Allocation.well_defined_with p ~allocation:(Allocation.lookup alloc))

(* --- qcheck: the arena-backed stack vs the retained cons-list reference,
   fresh and pool-recycled --- *)

(* Drive an identical random lifetime — writes at nondecreasing lock
   indexes interleaved with truncates — through the arena-backed
   History_stack and through History_stack_ref (the original cons-list
   representation kept verbatim), comparing every observable after every
   step. [via_pool] runs the arena side through a warm Pool, so recycled
   buffers must be indistinguishable from fresh ones. *)
let qcheck_hs_dense_vs_reference via_pool =
  let module R = History_stack_ref in
  let name =
    Printf.sprintf "arena stack matches cons-list reference (%s)"
      (if via_pool then "pooled" else "fresh")
  in
  let pool = History_stack.Pool.create () in
  QCheck.Test.make ~name ~count:300
    QCheck.(pair (int_range 1 4) (small_list (pair bool (int_bound 8))))
    (fun (budget, script) ->
      let h =
        if via_pool then
          History_stack.Pool.acquire pool ~budget ~created_at:0
            ~initial:(Value.int 0)
        else History_stack.create ~budget ~created_at:0 ~initial:(Value.int 0)
      in
      let r = R.create ~budget ~created_at:0 ~initial:(Value.int 0) in
      let agree () =
        Value.equal (History_stack.current h) (R.current r)
        && History_stack.n_versions h = R.n_versions r
        && History_stack.n_copies h = R.n_copies r
        && History_stack.peak_copies h = R.peak_copies r
        && History_stack.damaged h = R.damaged r
        && List.for_all
             (fun q ->
               History_stack.is_restorable h q = R.is_restorable r q
               && History_stack.value_at h q = R.value_at r q)
             (List.init 10 Fun.id)
      in
      let last = ref 0 in
      let ok =
        List.for_all
          (fun (truncate, k) ->
            (if truncate then begin
               let q = min k !last in
               if History_stack.is_restorable h q then begin
                 History_stack.truncate h q;
                 R.truncate r q;
                 last := q
               end
             end
             else begin
               let li = max !last k in
               History_stack.write h ~lock_index:li (Value.int (li * 10 + k));
               R.write r ~lock_index:li (Value.int (li * 10 + k));
               last := li
             end);
            agree ())
          script
      in
      if via_pool then History_stack.Pool.release pool h;
      ok)

(* --- qcheck: the dense transaction state vs the hashtable reference --- *)

module Generator = Prb_workload.Generator

(* What a call returned, or which exception it raised. The messages of
   [Invalid_argument] are compared too, except where the reference raised
   from inside [List.nth] (its [cost_of_target] past the last lock
   state). *)
type 'a outcome = Returned of 'a | Raised of string

let outcome f =
  match f () with
  | v -> Returned v
  | exception Not_found -> Raised "Not_found"
  | exception Assert_failure _ -> Raised "Assert_failure"
  | exception Invalid_argument m -> Raised ("Invalid_argument " ^ m)
  | exception Failure m -> Raised ("Failure " ^ m)

let cost_outcome f =
  match outcome f with
  | Raised m
    when String.starts_with ~prefix:"Invalid_argument" m
         || String.starts_with ~prefix:"Failure" m ->
      Raised "out of range"
  | o -> o

(* The state's actions carry no entity: a lock's is [next_lock_id]'s,
   named back through the store, and an unlock's is the op at [pc], which
   "pc" already compares. *)
let action_string ~name ts =
  match Txn_state.next_action ts with
  | Txn_state.Need_lock m ->
      Fmt.str "lock %a %s" Prb_txn.Lock_mode.pp m
        (name (Txn_state.next_lock_id ts))
  | Txn_state.Need_unlock -> "unlock"
  | Txn_state.Data_step -> "data"
  | Txn_state.At_end -> "end"

let ref_action_string = function
  | Txn_state_ref.Need_lock (m, e) ->
      Fmt.str "lock %a %s" Prb_txn.Lock_mode.pp m e
  | Txn_state_ref.Need_unlock _ -> "unlock"
  | Txn_state_ref.Data_step -> "data"
  | Txn_state_ref.At_end -> "end"

(* Every observable of the two states, compared. [es] is the entity
   universe (the program's entities and one it never locks), [subsets]
   the entity sets whose set target and its cost are asked. *)
let agree ts r ~name ~es ~vars ~subsets ~after_dispose =
  let module R = Txn_state_ref in
  let same name a b =
    if a = b then true
    else (
      Printf.printf "mismatch: %s\n" name;
      false)
  in
  same "pc" (Txn_state.pc ts) (R.pc r)
  && same "lock_index" (Txn_state.lock_index ts) (R.lock_index r)
  && same "phase"
       (Fmt.str "%a" Txn_state.pp_phase (Txn_state.phase ts))
       (Fmt.str "%a" R.pp_phase (R.phase r))
  && same "finished" (Txn_state.finished ts) (R.finished r)
  && same "locks_held" (Txn_state.locks_held ts) (R.locks_held r)
  && List.for_all
       (fun e ->
         same ("holds " ^ e) (Txn_state.holds ts e) (R.holds r e)
         && same ("lock_state_of " ^ e)
              (Txn_state.lock_state_of ts e)
              (R.lock_state_of r e))
       es
  && same "total_executed" (Txn_state.total_executed ts) (R.total_executed r)
  && same "n_rollbacks" (Txn_state.n_rollbacks ts) (R.n_rollbacks r)
  && same "ops_lost" (Txn_state.ops_lost ts) (R.ops_lost r)
  && same "current_copies" (Txn_state.current_copies ts) (R.current_copies r)
  && same "peak_copies" (Txn_state.peak_copies ts) (R.peak_copies r)
  && same "monitored_writes"
       (Txn_state.monitored_writes ts)
       (R.monitored_writes r)
  && (after_dispose
     || same "next_action"
          (outcome (fun () -> action_string ~name ts))
          (outcome (fun () -> ref_action_string (R.next_action r)))
        && same "pp" (Fmt.str "%a" Txn_state.pp ts) (Fmt.str "%a" R.pp r)
        && List.for_all
             (fun v ->
               same ("local_value " ^ v)
                 (outcome (fun () -> Txn_state.local_value ts v))
                 (outcome (fun () -> R.local_value r v)))
             vars
        && List.for_all
             (fun e ->
               same ("read_view " ^ e)
                 (outcome (fun () -> Txn_state.read_view ts e))
                 (outcome (fun () -> R.read_view r e))
               && same ("rollback_target " ^ e)
                    (outcome (fun () -> Txn_state.rollback_target ts e))
                    (outcome (fun () -> R.rollback_target r e))
               && same ("cost_to_release " ^ e)
                    (outcome (fun () -> Txn_state.cost_to_release ts e))
                    (outcome (fun () -> R.cost_to_release r e)))
             es
        && List.for_all
             (fun q ->
               same
                 (Printf.sprintf "well_defined %d" q)
                 (Txn_state.well_defined ts q)
                 (R.well_defined r q)
               && same
                    (Printf.sprintf "cost_of_target %d" q)
                    (cost_outcome (fun () -> Txn_state.cost_of_target ts q))
                    (cost_outcome (fun () -> R.cost_of_target r q)))
             (List.init (Txn_state.lock_index ts + 4) (fun q -> q - 2))
        && same "well_defined_states"
             (Txn_state.well_defined_states ts)
             (R.well_defined_states r)
        && List.for_all
             (fun sub ->
               let target =
                 outcome (fun () -> Txn_state.rollback_target_all ts sub)
               in
               same
                 ("rollback_target_all " ^ String.concat "," sub)
                 target
                 (outcome (fun () -> R.rollback_target_all r sub))
               &&
               match target with
               | Returned q ->
                   same
                     (Printf.sprintf "cost_of_target (set) %d" q)
                     (cost_outcome (fun () -> Txn_state.cost_of_target ts q))
                     (cost_outcome (fun () -> R.cost_of_target r q))
               | Raised _ -> true)
             subsets)

(* Drive one generated program through both states with the same random
   script — steps, partial rollbacks to engine-chosen, arbitrary and
   restart targets, unlocks and the commit — comparing everything after
   every step, then both disposals, and then the committed state rebuilt
   from the program and the four counters an engine keeps. *)
let differential_run ~pool ~ref_pool ~strategy ~copy_allocation ~store
    program rng =
  let module R = Txn_state_ref in
  let ts =
    Txn_state.create ?copy_allocation ?pool ~strategy ~id:0 ~store program
  in
  let r =
    R.create ?copy_allocation ?pool:ref_pool ~strategy ~id:0 ~store program
  in
  (* The state hands back store ids; the reference, names. *)
  let name = Store.name store in
  let es =
    "nope"
    :: List.sort_uniq String.compare
         (List.filter_map
            (function Program.Lock (_, e) -> Some e | _ -> None)
            (Array.to_list program.Program.ops))
  in
  let vars = "ghost" :: List.map fst program.Program.locals in
  let subset () = List.filter (fun _ -> Rng.bool rng) es in
  let held_subset () =
    List.filter
      (fun e -> Txn_state.holds ts e <> None && Rng.bool rng)
      es
  in
  let check ~after_dispose =
    agree ts r ~name ~es ~vars ~after_dispose
      ~subsets:[ []; subset (); subset (); held_subset () ]
  in
  let rec go steps =
    if steps = 0 then true
    else
      let ok =
        if Txn_state.phase ts = Txn_state.Growing && Rng.int rng 6 = 0 then
          let target =
            match Rng.int rng 4 with
            | 0 -> Txn_state.restart_target
            | 1 -> Rng.int rng (Txn_state.lock_index ts + 2) - 1
            | _ -> (
                match held_subset () with
                | [] -> Txn_state.lock_index ts
                | sub -> Txn_state.rollback_target_all ts sub)
          in
          outcome (fun () -> List.map name (Txn_state.rollback_to ts target))
          = outcome (fun () -> R.rollback_to r target)
        else
          match (Txn_state.next_action ts, R.next_action r) with
          | Txn_state.Need_lock _, R.Need_lock (_, e) ->
              let same_id = Txn_state.next_lock_id ts = Store.id store e in
              Txn_state.lock_granted ts;
              R.lock_granted r;
              same_id
          | Txn_state.Data_step, R.Data_step ->
              Txn_state.exec_data_op ts;
              R.exec_data_op r;
              true
          | Txn_state.Need_unlock, R.Need_unlock _ ->
              let x, final = Txn_state.perform_unlock ts in
              (name x, final) = R.perform_unlock r
          | Txn_state.At_end, R.At_end ->
              List.map (fun (x, v) -> (name x, v)) (Txn_state.commit ts)
              = R.commit r
          | _ -> false
      in
      ok
      && check ~after_dispose:false
      &&
      if Txn_state.phase ts = Txn_state.Committed then begin
        Txn_state.dispose ts;
        R.dispose r;
        let rebuilt =
          Txn_state.committed ~strategy ~id:0 ~store
            ~total_executed:(Txn_state.total_executed ts)
            ~n_rollbacks:(Txn_state.n_rollbacks ts)
            ~peak_copies:(Txn_state.peak_copies ts)
            ~monitored_writes:(Txn_state.monitored_writes ts) program
        in
        check ~after_dispose:true
        && agree rebuilt r ~name ~es ~vars ~after_dispose:true ~subsets:[]
        && Fmt.str "%a" Txn_state.pp rebuilt = Fmt.str "%a" Txn_state.pp ts
      end
      else go (steps - 1)
  in
  check ~after_dispose:false && go 300

let qcheck_txn_state_dense_vs_reference =
  let pool = History_stack.Pool.create () in
  let ref_pool = History_stack.Pool.create () in
  QCheck.Test.make ~name:"dense txn state matches hashtable reference"
    ~count:100
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, variant) ->
      let params =
        {
          Generator.default_params with
          Generator.n_entities = 10;
          min_locks = 1;
          max_locks = 6;
          read_fraction = 0.4;
          max_writes = 3;
          clustering = 0.3;
          explicit_unlocks = variant land 1 = 0;
        }
      in
      let rng = Rng.make seed in
      let program = Generator.generate_one params rng ~name:"diff" in
      let store = Generator.populate params in
      let pooled = variant land 2 = 0 in
      List.for_all
        (fun strategy ->
          let copy_allocation =
            if seed mod 3 = 0 then
              Some
                (Prb_rollback.Allocation.lookup
                   (Prb_rollback.Allocation.greedy program ~budget:2))
            else None
          in
          differential_run
            ~pool:(if pooled then Some pool else None)
            ~ref_pool:(if pooled then Some ref_pool else None)
            ~strategy ~copy_allocation ~store program (Rng.split rng))
        [
          Strategy.Total;
          Strategy.Mcs;
          Strategy.Sdg;
          Strategy.Sdg_k 1;
          Strategy.Sdg_k 2;
        ])

let () =
  Alcotest.run "prb_rollback"
    [
      ( "strategy",
        [
          Alcotest.test_case "string round-trip" `Quick test_strategy_roundtrip;
          Alcotest.test_case "budgets" `Quick test_strategy_budget;
        ] );
      ( "history_stack",
        [
          Alcotest.test_case "initial" `Quick test_hs_initial;
          Alcotest.test_case "write / value_at" `Quick test_hs_write_and_value_at;
          Alcotest.test_case "segment coalescing" `Quick test_hs_same_segment_coalesces;
          Alcotest.test_case "eviction damages" `Quick test_hs_eviction_damages;
          Alcotest.test_case "damage merges" `Quick test_hs_damage_merges;
          Alcotest.test_case "budget k" `Quick test_hs_budget_k;
          Alcotest.test_case "truncate" `Quick test_hs_truncate;
          Alcotest.test_case "truncate damaged" `Quick test_hs_truncate_damaged_rejected;
          Alcotest.test_case "coalesce after truncate" `Quick
            test_hs_coalesce_after_truncate;
          Alcotest.test_case "peak copies" `Quick test_hs_peak_copies;
          Alcotest.test_case "backwards write" `Quick test_hs_backwards_write_rejected;
          QCheck_alcotest.to_alcotest qcheck_hs_agrees_with_unbounded;
          QCheck_alcotest.to_alcotest (qcheck_hs_dense_vs_reference false);
          QCheck_alcotest.to_alcotest (qcheck_hs_dense_vs_reference true);
        ] );
      ( "sdg_view",
        [
          Alcotest.test_case "damage intervals" `Quick test_sdg_damage_intervals;
          Alcotest.test_case "well-defined states" `Quick test_sdg_well_defined;
          Alcotest.test_case "articulation agreement" `Quick test_sdg_articulation_agrees;
          Alcotest.test_case "read-only program" `Quick test_sdg_no_writes;
          Alcotest.test_case "rollback overshoot" `Quick test_sdg_rollback_overshoot;
          QCheck_alcotest.to_alcotest qcheck_sdg_views_agree;
        ] );
      ( "txn_state",
        [
          Alcotest.test_case "basic execution" `Quick test_txn_basic_execution;
          Alcotest.test_case "rollback costs" `Quick test_txn_costs;
          Alcotest.test_case "mcs exact rollback" `Quick test_txn_rollback_mcs_exact;
          Alcotest.test_case "total restart" `Quick test_txn_rollback_restart;
          Alcotest.test_case "sdg overshoot" `Quick test_txn_sdg_overshoot;
          Alcotest.test_case "sdg+k keeps more" `Quick test_txn_sdg_k_keeps_more;
          Alcotest.test_case "immune after unlock" `Quick
            test_txn_rollback_requires_growing;
          Alcotest.test_case "commit values" `Quick test_txn_commit_values;
          Alcotest.test_case "monitored writes" `Quick test_txn_monitored_writes;
          Alcotest.test_case "copy accounting" `Quick test_txn_copy_accounting;
        ] );
      ( "oracle properties",
        [
          QCheck_alcotest.to_alcotest
            (qcheck_rollback_restores_oracle Strategy.Mcs);
          QCheck_alcotest.to_alcotest
            (qcheck_rollback_restores_oracle Strategy.Sdg);
          QCheck_alcotest.to_alcotest
            (qcheck_rollback_restores_oracle (Strategy.Sdg_k 1));
          QCheck_alcotest.to_alcotest qcheck_mcs_reaches_every_state;
          QCheck_alcotest.to_alcotest qcheck_rollback_then_rerun_commits_same;
          QCheck_alcotest.to_alcotest qcheck_theorem3_bound;
          QCheck_alcotest.to_alcotest qcheck_single_copy_space;
          QCheck_alcotest.to_alcotest qcheck_runtime_sdg_matches_static;
          QCheck_alcotest.to_alcotest qcheck_rollback_target_all;
          QCheck_alcotest.to_alcotest qcheck_txn_state_dense_vs_reference;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "chunks" `Quick test_alloc_chunks;
          Alcotest.test_case "zero matches Sdg_view" `Quick
            test_alloc_zero_matches_sdg_view;
          Alcotest.test_case "full funding" `Quick
            test_alloc_full_funding_restores_everything;
          Alcotest.test_case "greedy placement" `Quick
            test_alloc_greedy_spends_where_it_pays;
          Alcotest.test_case "exact small" `Quick test_alloc_exact_small;
          QCheck_alcotest.to_alcotest qcheck_alloc_greedy_sound;
          QCheck_alcotest.to_alcotest qcheck_alloc_monotone;
          QCheck_alcotest.to_alcotest qcheck_alloc_runtime_agreement;
        ] );
    ]
