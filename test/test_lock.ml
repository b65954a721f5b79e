(* Tests for Prb_lock.Lock_table under both grant disciplines. *)

module Lock_table = Prb_lock.Lock_table
module Lock_mode = Prb_txn.Lock_mode

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let s = Lock_mode.Shared
let x = Lock_mode.Exclusive

let granted = function Lock_table.Granted -> true | Lock_table.Blocked _ -> false
let blockers = function Lock_table.Granted -> [] | Lock_table.Blocked bs -> bs

(* --- Grants and conflicts (both disciplines agree) --- *)

let test_grant_free_entity () =
  let t = Lock_table.create () in
  checkb "X on free entity" true (granted (Lock_table.request t 1 x "a"));
  checkb "holds" true (Lock_table.holds t 1 "a" = Some x)

let test_shared_holders_coexist () =
  let t = Lock_table.create () in
  checkb "S" true (granted (Lock_table.request t 1 s "a"));
  checkb "second S" true (granted (Lock_table.request t 2 s "a"));
  checki "two holders" 2 (List.length (Lock_table.holders t "a"))

let test_exclusive_blocks () =
  let t = Lock_table.create () in
  ignore (Lock_table.request t 1 x "a");
  let outcome = Lock_table.request t 2 x "a" in
  checkb "blocked" false (granted outcome);
  checkb "blocked by holder" true (blockers outcome = [ 1 ]);
  checkb "waiting_for" true (Lock_table.waiting_for t 2 = Some ("a", x))

let test_shared_blocked_by_exclusive () =
  let t = Lock_table.create () in
  ignore (Lock_table.request t 1 x "a");
  checkb "S blocked by X" false (granted (Lock_table.request t 2 s "a"))

let test_release_grants_waiter () =
  let t = Lock_table.create () in
  ignore (Lock_table.request t 1 x "a");
  ignore (Lock_table.request t 2 x "a");
  let grants = Lock_table.release t 1 "a" in
  checkb "waiter granted" true (grants = [ (2, x) ]);
  checkb "new holder" true (Lock_table.holds t 2 "a" = Some x);
  checkb "no longer waiting" true (Lock_table.waiting_for t 2 = None)

let test_release_grants_shared_batch () =
  let t = Lock_table.create () in
  ignore (Lock_table.request t 1 x "a");
  ignore (Lock_table.request t 2 s "a");
  ignore (Lock_table.request t 3 s "a");
  let grants = Lock_table.release t 1 "a" in
  checkb "both shared waiters granted" true (grants = [ (2, s); (3, s) ])

let test_double_request_rejected () =
  let t = Lock_table.create () in
  ignore (Lock_table.request t 1 x "a");
  Alcotest.check_raises "re-lock" (Invalid_argument "Lock_table.request: lock already held")
    (fun () -> ignore (Lock_table.request t 1 x "a"))

let test_request_while_waiting_rejected () =
  let t = Lock_table.create () in
  ignore (Lock_table.request t 1 x "a");
  ignore (Lock_table.request t 2 x "a");
  Alcotest.check_raises "second wait"
    (Invalid_argument "Lock_table.request: transaction is already waiting")
    (fun () -> ignore (Lock_table.request t 2 x "b"))

let test_release_not_held_rejected () =
  let t = Lock_table.create () in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Lock_table.release: lock not held") (fun () ->
      ignore (Lock_table.release t 1 "a"))

(* A shared holder asking for exclusive is a re-request like any other:
   locks are never converted. *)
let test_rerequest_rejected () =
  let t = Lock_table.create () in
  ignore (Lock_table.request t 1 s "a");
  Alcotest.check_raises "S held, X requested"
    (Invalid_argument "Lock_table.request: lock already held") (fun () ->
      ignore (Lock_table.request t 1 x "a"));
  checkb "still shared" true (Lock_table.holds t 1 "a" = Some s);
  checki "no conversion counted" 0 (Lock_table.n_upgrades t)

(* --- Fair discipline --- *)

let test_fair_no_overtaking () =
  let t = Lock_table.create ~fair:true () in
  ignore (Lock_table.request t 1 s "a");
  ignore (Lock_table.request t 2 x "a") (* queued *);
  let outcome = Lock_table.request t 3 s "a" in
  checkb "S blocked behind queued X" false (granted outcome);
  checkb "waits for the queued X only (holder is compatible)" true
    (blockers outcome = [ 2 ]);
  (* 1 releases: X goes first, S still queued behind. *)
  let grants = Lock_table.release t 1 "a" in
  checkb "X granted alone" true (grants = [ (2, x) ]);
  let grants = Lock_table.release t 2 "a" in
  checkb "then the S" true (grants = [ (3, s) ])

let test_unfair_overtaking () =
  let t = Lock_table.create ~fair:false () in
  ignore (Lock_table.request t 1 s "a");
  ignore (Lock_table.request t 2 x "a") (* queued *);
  checkb "availability rule: S joins holders" true
    (granted (Lock_table.request t 3 s "a"))

let test_fair_compatible_jump () =
  (* A shared request with only compatible requests ahead may be granted
     immediately. *)
  let t = Lock_table.create ~fair:true () in
  ignore (Lock_table.request t 1 s "a");
  checkb "second S not blocked by first" true (granted (Lock_table.request t 2 s "a"))

let test_cancel_wait_unblocks_queue () =
  let t = Lock_table.create ~fair:true () in
  ignore (Lock_table.request t 1 s "a");
  ignore (Lock_table.request t 2 x "a") (* queued X *);
  ignore (Lock_table.request t 3 s "a") (* queued behind X *);
  match Lock_table.cancel_wait t 2 with
  | Some ("a", grants) ->
      checkb "S behind the cancelled X is granted" true (grants = [ (3, s) ])
  | Some _ | None -> Alcotest.fail "expected cancellation grants"

let test_cancel_wait_none () =
  let t = Lock_table.create () in
  checkb "not waiting" true (Lock_table.cancel_wait t 9 = None)

let test_release_all () =
  let t = Lock_table.create () in
  ignore (Lock_table.request t 1 x "a");
  ignore (Lock_table.request t 1 s "b");
  ignore (Lock_table.request t 2 x "a") (* queued *);
  let grants = Lock_table.release_all t 1 in
  checkb "everything released, waiter granted" true (grants = [ (2, x, "a") ]);
  checkb "nothing held" true (Lock_table.held_by t 1 = [])

let test_blockers_evolve () =
  let t = Lock_table.create ~fair:true () in
  ignore (Lock_table.request t 1 s "a");
  ignore (Lock_table.request t 2 s "a");
  ignore (Lock_table.request t 3 x "a");
  checkb "waits for both holders" true (Lock_table.blockers t 3 = [ 1; 2 ]);
  ignore (Lock_table.release t 1 "a");
  checkb "re-pointed to the survivor" true (Lock_table.blockers t 3 = [ 2 ])

let test_classify () =
  let t = Lock_table.create () in
  ignore (Lock_table.request t 1 x "a");
  ignore (Lock_table.request t 9 s "b");
  checkb "S vs X is Type1" true
    (Lock_table.classify t 2 s "a" = Lock_table.Type1);
  checkb "X vs any is Type2" true
    (Lock_table.classify t 2 x "a" = Lock_table.Type2);
  checkb "X vs S is Type2" true
    (Lock_table.classify t 2 x "b" = Lock_table.Type2);
  checkb "free entity" true
    (Lock_table.classify t 2 x "zzz" = Lock_table.No_conflict)

(* --- qcheck: safety invariant under random traffic --- *)

(* Random request/release traffic; after every step, granted locks must be
   pairwise compatible and no waiter may also hold its awaited entity in a
   satisfying mode. *)
let qcheck_no_conflicting_grants fair =
  let name =
    Printf.sprintf "no conflicting holders (%s)"
      (if fair then "fair" else "availability")
  in
  QCheck.Test.make ~name ~count:300
    QCheck.(list (triple (int_bound 4) bool (int_bound 2)))
    (fun script ->
      let t = Lock_table.create ~fair () in
      let entity i = Printf.sprintf "e%d" i in
      List.iter
        (fun (txn, is_req, ei) ->
          let e = entity ei in
          if is_req then begin
            match (Lock_table.holds t txn e, Lock_table.waiting_for t txn) with
            | _, Some _ | Some _, _ -> () (* waiting or held: skip *)
            | None, None ->
                let mode = if txn mod 2 = 0 then s else x in
                ignore (Lock_table.request t txn mode e)
          end
          else
            match Lock_table.holds t txn e with
            | Some _ when Lock_table.waiting_for t txn = None ->
                ignore (Lock_table.release t txn e)
            | _ -> ignore (Lock_table.cancel_wait t txn))
        script;
      (* invariant: holders pairwise compatible *)
      List.for_all
        (fun ei ->
          let holders = Lock_table.holders t (entity ei) in
          List.for_all
            (fun (h1, m1) ->
              List.for_all
                (fun (h2, m2) -> h1 = h2 || Lock_mode.compatible m1 m2)
                holders)
            holders)
        [ 0; 1; 2 ])

(* --- qcheck: the indexed table vs a naive reference model --- *)

(* The table keeps a per-transaction held-locks index so that
   [held_by]/[holds]/[release_all] are O(locks held). This property drives
   random request/release/cancel traffic — including the fair queue —
   against a naive flat-list model that is updated only from the
   observable outcomes (grant results), then checks every read-side
   accessor against the model after each step. Any drift between the
   index, the per-entity entries, and the waiter bookkeeping fails here. *)
let qcheck_index_vs_reference fair =
  let name =
    Printf.sprintf "indexed table matches naive reference (%s)"
      (if fair then "fair" else "availability")
  in
  let n_txns = 5 and n_entities = 3 in
  QCheck.Test.make ~name ~count:200
    QCheck.(
      list (triple (int_bound (n_txns - 1)) (int_bound 4) (int_bound (n_entities - 1))))
    (fun script ->
      let t = Lock_table.create ~fair () in
      let entity i = Printf.sprintf "e%d" i in
      let entities = List.init n_entities entity in
      let txns = List.init n_txns Fun.id in
      (* naive model: flat association lists, event-sourced from outcomes *)
      let held = ref [] (* (txn * entity * mode) list *)
      and waiting = ref [] (* (txn * entity * mode) list *) in
      let model_grant w e m =
        waiting := List.filter (fun (x, _, _) -> x <> w) !waiting;
        held := (w, e, m) :: List.filter (fun (x, e', _) -> (x, e') <> (w, e)) !held
      in
      let model_holds txn e =
        List.find_map
          (fun (x, e', m) -> if (x, e') = (txn, e) then Some m else None)
          !held
      in
      let check_agreement () =
        List.for_all
          (fun txn ->
            let model_held =
              List.filter_map
                (fun (x, e, m) -> if x = txn then Some (e, m) else None)
                !held
              |> List.sort compare
            in
            Lock_table.held_by t txn = model_held
            && Lock_table.n_held t txn = List.length model_held
            && Lock_table.waiting_for t txn
               = List.find_map
                   (fun (x, e, m) -> if x = txn then Some (e, m) else None)
                   !waiting
            && List.for_all
                 (fun e -> Lock_table.holds t txn e = model_holds txn e)
                 entities)
          txns
        && List.for_all
             (fun e ->
               Lock_table.holders t e
               = (List.filter_map
                    (fun (x, e', m) -> if e' = e then Some (x, m) else None)
                    !held
                 |> List.sort compare))
             entities
        (* gc: the entry table holds exactly the touched entities *)
        && Lock_table.n_entries t
           = List.length
               (List.filter
                  (fun e ->
                    List.exists (fun (_, e', _) -> e' = e) !held
                    || List.exists (fun (_, e', _) -> e' = e) !waiting)
                  entities)
      in
      List.for_all
        (fun (txn, op, ei) ->
          let e = entity ei in
          (match op with
          | 0 | 1 -> (
              let mode = if op = 0 then s else x in
              match (Lock_table.waiting_for t txn, Lock_table.holds t txn e) with
              | Some _, _ | _, Some _ -> () (* waiting or held: would raise *)
              | None, None -> (
                  match Lock_table.request t txn mode e with
                  | Lock_table.Granted -> model_grant txn e mode
                  | Lock_table.Blocked _ ->
                      waiting := (txn, e, mode) :: !waiting))
          | 2 ->
              if
                Lock_table.holds t txn e <> None
                && Lock_table.waiting_for t txn = None
              then begin
                held := List.filter (fun (x, e', _) -> (x, e') <> (txn, e)) !held;
                List.iter (fun (w, m) -> model_grant w e m)
                  (Lock_table.release t txn e)
              end
          | 3 -> (
              match Lock_table.cancel_wait t txn with
              | None -> ()
              | Some (e, grants) ->
                  waiting := List.filter (fun (x, _, _) -> x <> txn) !waiting;
                  List.iter (fun (w, m) -> model_grant w e m) grants)
          | _ ->
              held := List.filter (fun (x, _, _) -> x <> txn) !held;
              waiting := List.filter (fun (x, _, _) -> x <> txn) !waiting;
              List.iter (fun (w, m, e) -> model_grant w e m)
                (Lock_table.release_all t txn));
          check_agreement ())
        script)

(* --- qcheck: the dense (interned, packed-buffer) table vs the retained
   hashtable-of-entries reference --- *)

(* Lock_table_ref is the original representation kept verbatim for
   differential testing. Both tables receive the identical random script
   — requests, releases, cancels, release_all — and
   must agree on every outcome (grant/block with the same blocker set,
   waiters granted in the same order) and on every read-side accessor
   after every step. *)
let qcheck_dense_vs_reference fair =
  let module Ref = Lock_table_ref in
  let name =
    Printf.sprintf "dense table matches retained reference (%s)"
      (if fair then "fair" else "availability")
  in
  let n_txns = 5 and n_entities = 3 in
  QCheck.Test.make ~name ~count:200
    QCheck.(
      list
        (triple (int_bound (n_txns - 1)) (int_bound 4)
           (int_bound (n_entities - 1))))
    (fun script ->
      let t = Lock_table.create ~fair () in
      let r = Ref.create ~fair () in
      let entity i = Printf.sprintf "e%d" i in
      let entities = List.init n_entities entity in
      let txns = List.init n_txns Fun.id in
      let outcomes_agree o o' =
        match (o, o') with
        | Lock_table.Granted, Ref.Granted -> true
        | Lock_table.Blocked bs, Ref.Blocked bs' -> bs = bs'
        | _ -> false
      in
      let agree () =
        List.for_all
          (fun txn ->
            Lock_table.held_by t txn = Ref.held_by r txn
            && Lock_table.n_held t txn = Ref.n_held r txn
            && Lock_table.waiting_for t txn = Ref.waiting_for r txn
            && Lock_table.blockers t txn = Ref.blockers r txn
            && List.for_all
                 (fun e -> Lock_table.holds t txn e = Ref.holds r txn e)
                 entities)
          txns
        && List.for_all
             (fun e ->
               Lock_table.holders t e = Ref.holders r e
               && Lock_table.waiters t e = Ref.waiters r e
               && Lock_table.has_waiters t e = Ref.has_waiters r e)
             entities
        && Lock_table.n_entries t = Ref.n_entries r
        && Lock_table.n_requests t = Ref.n_requests r
        && Lock_table.n_blocks t = Ref.n_blocks r
      in
      List.for_all
        (fun (txn, op, ei) ->
          let e = entity ei in
          (match op with
          | 0 | 1 -> (
              let mode = if op = 0 then s else x in
              (* skip scripts steps both tables would reject identically *)
              match (Lock_table.waiting_for t txn, Lock_table.holds t txn e) with
              | Some _, _ | _, Some _ -> true
              | None, None ->
                  outcomes_agree
                    (Lock_table.request t txn mode e)
                    (Ref.request r txn mode e))
          | 2 ->
              Lock_table.holds t txn e = None
              || Lock_table.waiting_for t txn <> None
              || Lock_table.release t txn e = Ref.release r txn e
          | 3 -> Lock_table.cancel_wait t txn = Ref.cancel_wait r txn
          | _ -> Lock_table.release_all t txn = Ref.release_all r txn)
          && agree ())
        script)

let () =
  Alcotest.run "prb_lock"
    [
      ( "grants",
        [
          Alcotest.test_case "free entity" `Quick test_grant_free_entity;
          Alcotest.test_case "shared coexist" `Quick test_shared_holders_coexist;
          Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
          Alcotest.test_case "S blocked by X" `Quick test_shared_blocked_by_exclusive;
          Alcotest.test_case "release grants" `Quick test_release_grants_waiter;
          Alcotest.test_case "shared batch grant" `Quick test_release_grants_shared_batch;
          Alcotest.test_case "double request" `Quick test_double_request_rejected;
          Alcotest.test_case "request while waiting" `Quick
            test_request_while_waiting_rejected;
          Alcotest.test_case "release not held" `Quick test_release_not_held_rejected;
          Alcotest.test_case "re-request rejected" `Quick test_rerequest_rejected;
        ] );
      ( "disciplines",
        [
          Alcotest.test_case "fair: no overtaking" `Quick test_fair_no_overtaking;
          Alcotest.test_case "availability: overtaking" `Quick test_unfair_overtaking;
          Alcotest.test_case "fair: compatible jump" `Quick test_fair_compatible_jump;
          Alcotest.test_case "cancel unblocks queue" `Quick test_cancel_wait_unblocks_queue;
          Alcotest.test_case "cancel nothing" `Quick test_cancel_wait_none;
          Alcotest.test_case "release_all" `Quick test_release_all;
          Alcotest.test_case "blockers evolve" `Quick test_blockers_evolve;
          Alcotest.test_case "conflict taxonomy" `Quick test_classify;
          QCheck_alcotest.to_alcotest (qcheck_no_conflicting_grants true);
          QCheck_alcotest.to_alcotest (qcheck_no_conflicting_grants false);
          QCheck_alcotest.to_alcotest (qcheck_index_vs_reference true);
          QCheck_alcotest.to_alcotest (qcheck_index_vs_reference false);
          QCheck_alcotest.to_alcotest (qcheck_dense_vs_reference true);
          QCheck_alcotest.to_alcotest (qcheck_dense_vs_reference false);
        ] );
    ]
