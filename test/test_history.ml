(* Tests for Prb_history: the conflict-serializability oracle — both the
   streaming checker and its agreement with the retained naive
   construction. *)

module History = Prb_history.History
module Naive = History_naive
module Digraph = Prb_graph.Digraph
module Rng = Prb_util.Rng
module Lock_mode = Prb_txn.Lock_mode

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let s = Lock_mode.Shared
let x = Lock_mode.Exclusive

let test_serial_history () =
  let h = History.create () in
  History.note_grant h ~tick:0 1 "a" x;
  History.note_release h ~tick:5 1 "a";
  History.commit_txn h 1;
  History.note_grant h ~tick:6 2 "a" x;
  History.note_release h ~tick:9 2 "a";
  History.commit_txn h 2;
  checkb "serializable" true (History.serializable h);
  checkb "order 1 then 2" true
    (History.equivalent_serial_order h = Some [ 1; 2 ])

let test_shared_reads_commute () =
  let h = History.create () in
  History.note_grant h ~tick:0 1 "a" s;
  History.note_grant h ~tick:1 2 "a" s;
  History.note_release h ~tick:5 1 "a";
  History.note_release h ~tick:6 2 "a";
  History.commit_txn h 1;
  History.commit_txn h 2;
  checkb "S/S overlap fine" true (History.serializable h);
  checkb "no precedence edge" true
    (Prb_graph.Digraph.n_edges (History.precedence_graph h) = 0)

let test_overlapping_conflict_detected () =
  let h = History.create () in
  History.note_grant h ~tick:0 1 "a" x;
  History.note_grant h ~tick:2 2 "a" x (* impossible under a correct lock
                                          manager — the oracle must flag it *);
  History.note_release h ~tick:5 1 "a";
  History.note_release h ~tick:6 2 "a";
  History.commit_txn h 1;
  History.commit_txn h 2;
  checki "one overlap" 1 (List.length (History.overlapping_conflicts h));
  checkb "not serializable" false (History.serializable h)

let test_cyclic_precedence () =
  let h = History.create () in
  (* T1 before T2 on a; T2 before T1 on b: classic non-serializable. *)
  History.note_grant h ~tick:0 1 "a" x;
  History.note_release h ~tick:1 1 "a";
  History.note_grant h ~tick:2 2 "a" x;
  History.note_release h ~tick:3 2 "a";
  History.note_grant h ~tick:2 2 "b" x;
  History.note_release h ~tick:3 2 "b";
  History.note_grant h ~tick:4 1 "b" x;
  History.note_release h ~tick:5 1 "b";
  History.commit_txn h 1;
  History.commit_txn h 2;
  checkb "cycle -> not serializable" false (History.serializable h);
  checkb "no serial order" true (History.equivalent_serial_order h = None)

let test_discard_erases () =
  let h = History.create () in
  History.note_grant h ~tick:0 1 "a" x;
  History.discard h 1 "a" (* partial rollback released it *);
  History.note_release h ~tick:9 1 "a" (* release after discard: no-op *);
  History.commit_txn h 1;
  checkb "no trace" true (History.committed h = [])

let test_discard_txn () =
  let h = History.create () in
  History.note_grant h ~tick:0 1 "a" x;
  History.note_release h ~tick:1 1 "a";
  History.note_grant h ~tick:2 1 "b" x;
  History.discard_txn h 1;
  History.commit_txn h 1;
  checkb "everything gone" true (History.committed h = [])

let test_commit_with_open_interval_rejected () =
  let h = History.create () in
  History.note_grant h ~tick:0 1 "a" x;
  Alcotest.check_raises "open interval"
    (Invalid_argument "History.commit_txn: transaction still holds a lock")
    (fun () -> History.commit_txn h 1)

let test_uncommitted_excluded () =
  let h = History.create () in
  History.note_grant h ~tick:0 1 "a" x;
  History.note_release h ~tick:1 1 "a";
  (* never committed *)
  checkb "nothing committed" true (History.committed h = []);
  checkb "vacuously serializable" true (History.serializable h)

let test_relock_after_rollback () =
  let h = History.create () in
  (* grant, discard (rollback), re-grant later: only the second interval
     survives *)
  History.note_grant h ~tick:0 1 "a" x;
  History.discard h 1 "a";
  History.note_grant h ~tick:10 1 "a" x;
  History.note_release h ~tick:12 1 "a";
  History.commit_txn h 1;
  (match History.committed h with
  | [ i ] ->
      checki "second grant tick" 10 i.History.granted_at;
      checki "release tick" 12 i.History.released_at
  | _ -> Alcotest.fail "expected exactly one interval")

(* --- Streaming-specific behaviour ------------------------------------ *)

let test_prefix_folding () =
  let h = History.create () in
  (* Three strictly sequential writers on "a". After each later commit the
     earlier transaction is quiescent with no retained predecessor, so it
     folds out of the retained window. *)
  History.note_grant h ~tick:0 1 "a" x;
  History.note_release h ~tick:1 1 "a";
  History.commit_txn h 1;
  History.note_grant h ~tick:2 2 "a" x;
  History.note_release h ~tick:3 2 "a";
  History.commit_txn h 2;
  History.note_grant h ~tick:4 3 "a" x;
  History.note_release h ~tick:5 3 "a";
  History.commit_txn h 3;
  checki "folded prefix" 2 (History.n_folded h);
  checki "one txn retained" 1 (History.n_retained_txns h);
  checki "one interval retained" 1 (History.n_retained_intervals h);
  checkb "witness spans folded and retained" true
    (History.equivalent_serial_order h = Some [ 1; 2; 3 ]);
  checkb "still serializable" true (History.serializable h)

let test_live_txn_blocks_folding () =
  let h = History.create () in
  History.note_grant h ~tick:0 9 "z" x (* early grant, never finishes *);
  History.note_grant h ~tick:1 1 "a" x;
  History.note_release h ~tick:2 1 "a";
  History.commit_txn h 1;
  History.note_grant h ~tick:3 2 "a" x;
  History.note_release h ~tick:4 2 "a";
  History.commit_txn h 2;
  (* T9's open interval pins the watermark at tick 0: nothing may fold,
     because T9 could still commit an interval conflicting with anything. *)
  checki "nothing folded" 0 (History.n_folded h);
  checki "both retained" 2 (History.n_retained_txns h);
  (* Once T9 disappears the next commit reclaims the backlog. *)
  History.discard_txn h 9;
  History.note_grant h ~tick:5 3 "a" x;
  History.note_release h ~tick:6 3 "a";
  History.commit_txn h 3;
  checki "backlog folded" 2 (History.n_folded h);
  checkb "witness intact" true
    (History.equivalent_serial_order h = Some [ 1; 2; 3 ])

let test_bounded_retention_long_run () =
  let h = History.create () in
  let n = 200 in
  for i = 1 to n do
    let tick = 2 * i in
    History.note_grant h ~tick i "a" x;
    History.note_grant h ~tick:(tick + 1) i "b" s;
    History.note_release h ~tick:(tick + 1) i "a";
    History.note_release h ~tick:(tick + 1) i "b";
    History.commit_txn h i
  done;
  checkb "serializable" true (History.serializable h);
  checkb "retention stays O(active window), not O(run)" true
    (History.n_retained_intervals h <= 4);
  checki "everything else folded" (n - History.n_retained_txns h)
    (History.n_folded h);
  checkb "witness is the full serial order" true
    (History.equivalent_serial_order h = Some (List.init n (fun i -> i + 1)))

(* --- Differential property vs the naive construction ------------------ *)

(* Replay one random API trace into both implementations. Ticks are
   monotone (the engines' precondition), transaction ids are never
   reused, and the trace mixes S/X grants, releases, discards, whole-txn
   discards and commits — including lock-manager-impossible overlapping
   X grants, which must be flagged identically. *)
let replay_random_trace seed =
  let rng = Rng.make seed in
  let stream = History.create () in
  let naive = Naive.create () in
  let entities = [| "a"; "b"; "c"; "d" |] in
  let tick = ref 0 in
  let next_id = ref 0 in
  (* id -> entities with an open interval *)
  let open_of : (int, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let active = ref [] in
  let bump () = if Rng.chance rng 0.7 then incr tick in
  let grant id =
    let e = entities.(Rng.int rng (Array.length entities)) in
    let m = if Rng.chance rng 0.4 then s else x in
    bump ();
    History.note_grant stream ~tick:!tick id e m;
    Naive.note_grant naive ~tick:!tick id e m;
    let l = Hashtbl.find open_of id in
    if not (List.mem e !l) then l := e :: !l
  in
  let steps = 30 + Rng.int rng 50 in
  for _ = 1 to steps do
    match Rng.int rng 10 with
    | 0 | 1 when List.length !active < 6 ->
        incr next_id;
        let id = !next_id in
        Hashtbl.replace open_of id (ref []);
        active := id :: !active;
        grant id
    | 2 | 3 | 4 | 5 -> (
        match !active with
        | [] -> ()
        | l -> grant (List.nth l (Rng.int rng (List.length l))))
    | 6 | 7 -> (
        (* release or discard one open interval *)
        match !active with
        | [] -> ()
        | l -> (
            let id = List.nth l (Rng.int rng (List.length l)) in
            let opens = Hashtbl.find open_of id in
            match !opens with
            | [] -> ()
            | e :: rest ->
                opens := rest;
                if Rng.chance rng 0.75 then begin
                  bump ();
                  History.note_release stream ~tick:!tick id e;
                  Naive.note_release naive ~tick:!tick id e
                end
                else begin
                  History.discard stream id e;
                  Naive.discard naive id e
                end))
    | 8 -> (
        (* commit: close every open interval first *)
        match !active with
        | [] -> ()
        | l ->
            let id = List.nth l (Rng.int rng (List.length l)) in
            let opens = Hashtbl.find open_of id in
            List.iter
              (fun e ->
                bump ();
                History.note_release stream ~tick:!tick id e;
                Naive.note_release naive ~tick:!tick id e)
              !opens;
            opens := [];
            active := List.filter (fun i -> i <> id) !active;
            Hashtbl.remove open_of id;
            History.commit_txn stream id;
            Naive.commit_txn naive id)
    | _ -> (
        match !active with
        | [] -> ()
        | l ->
            let id = List.nth l (Rng.int rng (List.length l)) in
            active := List.filter (fun i -> i <> id) !active;
            Hashtbl.remove open_of id;
            History.discard_txn stream id;
            Naive.discard_txn naive id)
  done;
  (* Drain: commit every still-active transaction. *)
  List.iter
    (fun id ->
      let opens = Hashtbl.find open_of id in
      List.iter
        (fun e ->
          bump ();
          History.note_release stream ~tick:!tick id e;
          Naive.note_release naive ~tick:!tick id e)
        !opens;
      History.commit_txn stream id;
      Naive.commit_txn naive id)
    !active;
  (stream, naive)

let sorted_pairs l =
  List.sort compare
    (List.map
       (fun ((a : History.interval), (b : History.interval)) ->
         (a.txn, a.entity, a.granted_at, b.txn, b.entity, b.granted_at))
       l)

(* The streaming witness need not be the naive one (several linear
   extensions can be valid); it must cover exactly the naive vertex set
   and linearise every naive edge. *)
let valid_witness order naive_graph =
  let position = Hashtbl.create 32 in
  List.iteri (fun i v -> Hashtbl.replace position v i) order;
  List.sort_uniq Int.compare order = Digraph.vertices naive_graph
  && List.for_all
       (fun (u, v) -> Hashtbl.find position u < Hashtbl.find position v)
       (Digraph.edges naive_graph)

let streaming_agrees_with_naive seed =
  let stream, naive = replay_random_trace seed in
  let verdict_agrees = History.serializable stream = Naive.serializable naive in
  let overlaps_agree =
    sorted_pairs (History.overlapping_conflicts stream)
    = sorted_pairs (Naive.overlapping_conflicts naive)
  in
  let witness_ok =
    match
      (History.equivalent_serial_order stream, Naive.equivalent_serial_order naive)
    with
    | None, None -> true
    | Some order, Some _ -> valid_witness order (Naive.precedence_graph naive)
    | Some _, None | None, Some _ -> false
  in
  verdict_agrees && overlaps_agree && witness_ok

let qcheck_streaming_vs_naive =
  QCheck.Test.make ~count:300 ~name:"streaming checker agrees with naive"
    QCheck.small_nat streaming_agrees_with_naive

let () =
  Alcotest.run "prb_history"
    [
      ( "serializability",
        [
          Alcotest.test_case "serial history" `Quick test_serial_history;
          Alcotest.test_case "shared reads commute" `Quick test_shared_reads_commute;
          Alcotest.test_case "overlap detection" `Quick test_overlapping_conflict_detected;
          Alcotest.test_case "cyclic precedence" `Quick test_cyclic_precedence;
        ] );
      ( "rollback bookkeeping",
        [
          Alcotest.test_case "discard erases" `Quick test_discard_erases;
          Alcotest.test_case "discard txn" `Quick test_discard_txn;
          Alcotest.test_case "open interval rejected" `Quick
            test_commit_with_open_interval_rejected;
          Alcotest.test_case "uncommitted excluded" `Quick test_uncommitted_excluded;
          Alcotest.test_case "relock after rollback" `Quick test_relock_after_rollback;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "prefix folding" `Quick test_prefix_folding;
          Alcotest.test_case "live txn blocks folding" `Quick
            test_live_txn_blocks_folding;
          Alcotest.test_case "bounded retention" `Quick
            test_bounded_retention_long_run;
          QCheck_alcotest.to_alcotest qcheck_streaming_vs_naive;
        ] );
    ]
