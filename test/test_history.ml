(* Tests for Prb_history: the conflict-serializability oracle — both the
   streaming checker and its agreement with the retained naive
   construction. *)

(* The certifier takes store ids. These tests name entities, resolved
   through one numbering that every history below shares. *)
module History = struct
  include Prb_history.History

  let names = Prb_storage.Store.create ()
  let id = Prb_storage.Store.id names
  let create () = create names
  let note_grant t ~tick txn e mode = note_grant t ~tick txn (id e) mode
  let note_release t ~tick txn e = note_release t ~tick txn (id e)
  let discard t txn e = discard t txn (id e)
end

module Naive = History_naive
module Rng = Prb_util.Rng
module Lock_mode = Prb_txn.Lock_mode
module Generator = Prb_workload.Generator
module Scheduler = Prb_core.Scheduler
module D = Prb_distrib.Dist_scheduler
module Sim = Prb_sim.Sim
module Dist_sim = Prb_distrib.Dist_sim

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
  (* Sequential shared holds add no precedence edge either. T9's grant at
     tick 0 pins the watermark, so neither commit folds and the witness
     is the residue walk alone: [2; 1] with no edge, [1; 2] had a
     T1 -> T2 edge been added. *)
  let h = History.create () in
  History.note_grant h ~tick:0 9 "z" x;
  History.note_grant h ~tick:1 1 "a" s;
  History.note_release h ~tick:2 1 "a";
  History.note_grant h ~tick:3 2 "a" s;
  History.note_release h ~tick:4 2 "a";
  History.commit_txn h 1;
  History.commit_txn h 2;
  checki "nothing folded" 0 (History.n_folded h);
  checkb "no precedence edge" true
    (History.equivalent_serial_order h = Some [ 2; 1 ])

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

(* Transaction [i]'s whole life in the certifier, in a strictly serial
   run: an exclusive and a shared grant, both releases and the commit,
   which folds transaction [i - 1]. *)
let serial_cycle h i =
  let tick = 2 * i in
  History.note_grant h ~tick i "a" x;
  History.note_grant h ~tick i "b" s;
  History.note_release h ~tick:(tick + 1) i "a";
  History.note_release h ~tick:(tick + 1) i "b";
  History.commit_txn h i

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Once the pools, the entity names and the id-indexed arrays are warm
   (past 256 words, so any further doubling goes to the major heap), the
   certifier's per-commit work allocates nothing. *)
let test_warm_cycle_allocates_nothing () =
  let h = History.create () in
  for i = 0 to 999 do
    serial_cycle h i
  done;
  let baseline = minor_words_of ignore in
  let words =
    minor_words_of (fun () ->
        for i = 1000 to 1099 do
          serial_cycle h i
        done)
  in
  checki "minor words over 100 cycles" 0 (int_of_float (words -. baseline));
  checki "each cycle folded its predecessor" 1099 (History.n_folded h)

let test_pools_follow_window () =
  let h = History.create () in
  for i = 0 to 9_999 do
    serial_cycle h i
  done;
  let slots, intervals, succs = History.pool_sizes h in
  checki "slots: the committing and the retained transaction" 2 slots;
  checki "interval cells: two each" 4 intervals;
  checki "successor cells: one edge" 1 succs;
  checki "everything else folded" 9_999 (History.n_folded h)

(* --- Pinned witness ------------------------------------------------------ *)

(* One contended workload through each engine in a closed loop: 64
   entities, theta 0.8, 30% shared locks, MPL 16, 400 transactions, seed
   11. The witness is pinned in full at the end of the run, and also at
   step [mid_step], where committed transactions are still retained, so
   both the fold sequence and the query-time order of the retained
   residue are held byte-identical. *)
let pinned_params =
  {
    Generator.default_params with
    n_entities = 64;
    zipf_theta = 0.8;
    read_fraction = 0.3;
  }

let mid_step = 1500

(* [Sim.drive] with [step] wrapped to read the witness mid-run. *)
let pinned_run (e : Sim.engine) =
  let steps = ref 0 and mid = ref None in
  let step () =
    let more = e.step () in
    if more then begin
      incr steps;
      if !steps = mid_step then
        mid :=
          Some
            ( History.n_retained_txns e.history,
              History.equivalent_serial_order e.history )
    end;
    more
  in
  Sim.drive { e with step } ~mpl:16
    (Generator.generate pinned_params ~seed:11 ~n:400);
  checki "all committed" 400 (e.n_committed ());
  match !mid with
  | None -> Alcotest.fail "run ended before the mid-run step"
  | Some (retained, order) ->
      (retained, order, History.equivalent_serial_order e.history)

let central_mid_order =
  Some
    [
      4; 0; 12; 1; 18; 3; 2; 5; 22; 7; 6; 11; 20; 8; 26; 10; 15; 14; 16; 28;
      31; 9; 33; 35; 13; 37; 23; 47; 38; 17; 39; 24; 27; 44; 19; 42; 21; 45
    ]

let central_final_order =
  Some
    [
      4; 0; 12; 1; 18; 3; 2; 5; 22; 7; 6; 11; 20; 8; 26; 10; 15; 14; 16; 28;
      31; 9; 33; 35; 13; 37; 23; 38; 17; 24; 27; 39; 47; 44; 19; 21; 42; 45;
      30; 25; 32; 43; 36; 55; 29; 46; 34; 51; 41; 40; 48; 59; 50; 49; 52; 60;
      57; 54; 62; 56; 53; 64; 63; 66; 61; 58; 68; 65; 73; 75; 69; 76; 67; 72;
      77; 84; 78; 70; 71; 80; 79; 81; 83; 82; 85; 96; 93; 97; 90; 86; 74; 95;
      89; 87; 92; 98; 108; 106; 104; 91; 94; 99; 103; 109; 113; 88; 107; 101;
      110; 114; 100; 112; 111; 121; 124; 129; 102; 105; 116; 118; 117; 128;
      123; 115; 126; 120; 131; 136; 137; 119; 139; 133; 122; 138; 141; 146;
      130; 127; 142; 132; 135; 149; 125; 151; 134; 144; 145; 147; 143; 140;
      148; 157; 158; 150; 167; 154; 152; 162; 155; 160; 163; 161; 159; 156;
      166; 176; 165; 169; 171; 153; 170; 173; 181; 185; 174; 177; 180; 186;
      175; 164; 179; 168; 195; 197; 172; 178; 189; 184; 202; 182; 191; 196;
      194; 206; 207; 203; 183; 187; 201; 205; 208; 188; 198; 214; 190; 210;
      217; 200; 209; 192; 204; 213; 215; 193; 199; 212; 230; 211; 216; 219;
      220; 222; 218; 223; 224; 240; 238; 225; 226; 239; 245; 233; 236; 244;
      227; 228; 229; 241; 242; 231; 252; 221; 250; 251; 234; 243; 248; 232;
      247; 237; 253; 258; 256; 260; 264; 269; 249; 254; 259; 273; 235; 255;
      276; 246; 272; 278; 257; 261; 262; 265; 263; 280; 277; 285; 267; 281;
      271; 274; 268; 275; 279; 282; 270; 283; 296; 287; 266; 292; 302; 303;
      286; 288; 294; 306; 301; 293; 304; 308; 289; 309; 311; 312; 290; 291;
      305; 284; 315; 321; 295; 319; 320; 299; 322; 327; 300; 317; 324; 307;
      310; 329; 297; 314; 316; 328; 325; 298; 318; 313; 332; 343; 331; 323;
      336; 326; 330; 335; 346; 333; 337; 344; 353; 347; 334; 340; 338; 339;
      351; 354; 342; 348; 341; 359; 358; 364; 345; 355; 349; 352; 361; 363;
      350; 369; 360; 356; 357; 371; 372; 375; 374; 362; 366; 376; 383; 368;
      377; 373; 379; 384; 380; 365; 390; 393; 370; 381; 387; 392; 394; 382;
      398; 399; 388; 385; 367; 391; 378; 386; 397; 396; 395; 389
    ]

let distrib_mid_order =
  Some
    [
      4; 0; 10; 12; 1; 18; 3; 14; 2; 16; 5; 7; 6; 22; 20; 28; 26; 11; 33; 31;
      35; 9; 15; 8; 13; 38; 37; 39; 17; 24; 19; 21
    ]

let distrib_final_order =
  Some
    [
      4; 0; 10; 12; 1; 18; 3; 14; 2; 16; 5; 7; 6; 22; 20; 26; 28; 11; 31; 33;
      35; 9; 15; 8; 13; 37; 38; 39; 17; 24; 19; 21; 47; 41; 25; 43; 45; 23;
      42; 27; 30; 51; 29; 32; 34; 46; 55; 36; 44; 40; 60; 62; 59; 57; 54; 49;
      48; 65; 53; 52; 50; 61; 66; 73; 75; 76; 69; 68; 72; 56; 64; 63; 79; 58;
      81; 78; 67; 80; 70; 71; 84; 82; 77; 90; 85; 97; 86; 74; 87; 83; 92; 96;
      91; 108; 89; 95; 98; 104; 106; 93; 100; 102; 113; 94; 103; 99; 109;
      114; 88; 101; 117; 121; 110; 124; 112; 111; 107; 129; 105; 116; 128;
      122; 115; 123; 126; 119; 118; 139; 138; 141; 130; 120; 137; 136; 146;
      127; 131; 133; 134; 152; 149; 132; 135; 142; 144; 151; 125; 143; 140;
      154; 157; 158; 153; 148; 150; 156; 147; 145; 160; 159; 162; 167; 172;
      155; 164; 163; 161; 176; 165; 168; 169; 166; 173; 181; 171; 170; 185;
      174; 177; 180; 186; 175; 195; 179; 197; 178; 189; 202; 182; 191; 194;
      184; 196; 183; 187; 201; 205; 203; 206; 214; 198; 188; 208; 207; 190;
      192; 193; 200; 210; 199; 218; 217; 209; 204; 213; 211; 230; 216; 220;
      215; 222; 212; 219; 233; 223; 240; 224; 238; 225; 239; 245; 226; 236;
      244; 227; 228; 229; 241; 242; 252; 231; 251; 221; 250; 234; 243; 232;
      247; 248; 237; 249; 258; 256; 264; 259; 269; 267; 235; 253; 271; 273;
      254; 255; 276; 277; 257; 260; 275; 278; 246; 274; 281; 261; 270; 265;
      262; 272; 263; 285; 287; 268; 282; 296; 286; 279; 280; 292; 283; 290;
      303; 266; 302; 295; 291; 306; 308; 309; 311; 284; 298; 288; 293; 301;
      289; 300; 299; 305; 312; 304; 317; 322; 316; 321; 294; 327; 315; 297;
      320; 324; 307; 319; 310; 314; 323; 328; 318; 329; 330; 336; 325; 332;
      340; 343; 326; 313; 333; 346; 335; 347; 349; 353; 331; 344; 351; 348;
      334; 337; 338; 354; 339; 342; 359; 341; 352; 355; 364; 363; 371; 345;
      356; 357; 369; 372; 365; 370; 358; 376; 350; 383; 360; 374; 362; 381;
      378; 380; 361; 375; 366; 368; 373; 377; 379; 384; 385; 387; 390; 393;
      394; 382; 398; 367; 386; 399; 395; 389; 388; 392; 391; 397; 396
    ]

let check_pinned (retained, mid, final) ~mid_order ~final_order =
  checkb "mid-run residue retained" true (retained >= 5);
  checkb "mid-run witness" true (mid = mid_order);
  checkb "final witness" true (final = final_order)

let test_pinned_witness_central () =
  check_pinned
    (pinned_run
       (Sim.central
          (Scheduler.create
             ~config:{ Scheduler.default_config with seed = 11 }
             (Generator.populate pinned_params))))
    ~mid_order:central_mid_order ~final_order:central_final_order

let test_pinned_witness_distrib () =
  check_pinned
    (pinned_run
       (Dist_sim.engine
          (D.create
             { D.default_config with seed = 11 }
             (Generator.populate pinned_params))))
    ~mid_order:distrib_mid_order ~final_order:distrib_final_order

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
          Alcotest.test_case "warm cycle allocates nothing" `Quick
            test_warm_cycle_allocates_nothing;
          Alcotest.test_case "pools follow the window" `Quick
            test_pools_follow_window;
        ] );
      ( "pinned witness",
        [
          Alcotest.test_case "central engine" `Quick test_pinned_witness_central;
          Alcotest.test_case "distributed engine" `Quick
            test_pinned_witness_distrib;
        ] );
    ]
