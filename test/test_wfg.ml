(* Tests for Prb_wfg.Waits_for: the labelled concurrency graph. *)

module W = Prb_wfg.Waits_for

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_set_and_clear_wait () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2; 3 ] "a";
  checkb "blocked" true (W.is_blocked g 1);
  checkb "waits" true (W.waits g 1 = [ (2, "a"); (3, "a") ]);
  checkb "in-edges of 2" true (W.waiting_on g 2 = [ (1, "a") ]);
  W.clear_wait g 1;
  checkb "cleared" false (W.is_blocked g 1);
  checkb "no edges" true (W.edges g = [])

let test_set_wait_replaces () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2 ] "a";
  W.set_wait g ~waiter:1 ~holders:[ 3 ] "b";
  checkb "old edge gone" true (W.waits g 1 = [ (3, "b") ])

let test_set_wait_self_rejected () =
  let g = W.create () in
  Alcotest.check_raises "self wait"
    (Invalid_argument "Waits_for.set_wait: waiter among holders") (fun () ->
      W.set_wait g ~waiter:1 ~holders:[ 1 ] "a")

let test_remove_txn () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2 ] "a";
  W.set_wait g ~waiter:3 ~holders:[ 1 ] "b";
  W.remove_txn g 1;
  checkb "vertex gone" false (List.mem 1 (W.txns g));
  checkb "incident edges gone" true (W.edges g = [])

let test_would_deadlock_direct () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2 ] "a";
  (* 2 blocking on 1 closes the cycle *)
  checkb "deadlock predicted" true (W.would_deadlock g ~waiter:2 ~holders:[ 1 ]);
  checkb "no deadlock on fresh" false (W.would_deadlock g ~waiter:2 ~holders:[ 3 ])

let test_would_deadlock_transitive () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2 ] "a";
  W.set_wait g ~waiter:2 ~holders:[ 3 ] "b";
  checkb "transitive cycle" true (W.would_deadlock g ~waiter:3 ~holders:[ 1 ]);
  checkb "chain extension fine" false (W.would_deadlock g ~waiter:4 ~holders:[ 1 ])

let test_cycles_through () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2; 3 ] "f";
  W.set_wait g ~waiter:2 ~holders:[ 1 ] "a";
  W.set_wait g ~waiter:3 ~holders:[ 1 ] "b";
  checki "two cycles through 1" 2 (List.length (W.cycles_through g 1));
  checki "one cycle through 2" 1 (List.length (W.cycles_through g 2))

(* A cycle record stays intact until the graph loses an edge; adding
   edges does not invalidate it, and a fresh enumeration is intact
   again. *)
let test_record_intact () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2 ] "a";
  W.set_wait g ~waiter:2 ~holders:[ 1 ] "b";
  let c = W.enumerate g 1 in
  checki "one cycle" 1 c.W.n_cycles;
  checkb "fresh record intact" true (W.intact g c);
  W.set_wait g ~waiter:3 ~holders:[ 1 ] "c";
  checkb "an added edge keeps it" true (W.intact g c);
  W.clear_wait g 3;
  checkb "a removed edge stales it" false (W.intact g c);
  checkb "re-enumerated record intact" true (W.intact g (W.enumerate g 1));
  W.remove_txn g 2;
  checkb "a removed vertex stales it" false (W.intact g c)

let test_exclusive_forest () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2 ] "a";
  W.set_wait g ~waiter:3 ~holders:[ 2 ] "b";
  checkb "forest" true (W.is_exclusive_forest g);
  W.set_wait g ~waiter:4 ~holders:[ 5; 6 ] "c";
  checkb "shared wait breaks forest shape" false (W.is_exclusive_forest g)

let test_pp () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 2 ] "a";
  let rendered = Fmt.str "%a" W.pp g in
  checkb "pp mentions edge" true (rendered = "T1 -a-> T2")

(* qcheck: would_deadlock(waiter, holders) is equivalent to adding the
   edges and finding a cycle through the waiter. *)
let qcheck_would_deadlock_oracle =
  QCheck.Test.make ~name:"would_deadlock matches add-and-check oracle"
    ~count:300
    QCheck.(
      pair
        (list (pair (int_range 0 5) (int_range 0 5)))
        (pair (int_range 0 5) (list (int_range 0 5))))
    (fun (edges, (waiter, holders)) ->
      (* install a consistent waits-for state: one entity per waiter *)
      let g = W.create () in
      let by_waiter = Hashtbl.create 8 in
      List.iter
        (fun (w, h) ->
          if w <> h then
            let hs = try Hashtbl.find by_waiter w with Not_found -> [] in
            Hashtbl.replace by_waiter w (h :: hs))
        edges;
      Hashtbl.iter
        (fun w hs -> W.set_wait g ~waiter:w ~holders:hs "e")
        by_waiter;
      let holders =
        List.sort_uniq compare (List.filter (fun h -> h <> waiter) holders)
      in
      QCheck.assume (holders <> []);
      QCheck.assume (not (W.is_blocked g waiter));
      let predicted = W.would_deadlock g ~waiter ~holders in
      W.set_wait g ~waiter ~holders "q";
      let actual = W.cycles_through g waiter <> [] in
      predicted = actual)

(* qcheck: the dense (slot-indexed adjacency) graph vs the retained
   hashtable reference — identical random set/clear/remove traffic, then
   every observable compared after every step, including the cycle
   enumeration the resolver consumes. *)
let qcheck_dense_vs_reference =
  let module R = Waits_for_ref in
  QCheck.Test.make ~name:"dense graph matches retained reference" ~count:300
    QCheck.(
      list
        (triple (int_bound 3) (int_range 0 5) (list_of_size Gen.(0 -- 3) (int_range 0 5))))
    (fun script ->
      let g = W.create () and r = R.create () in
      let ids = List.init 6 Fun.id in
      let agree () =
        W.txns g = R.txns r
        && W.edges g = R.edges r
        && W.is_exclusive_forest g = R.is_exclusive_forest r
        && List.for_all
             (fun i ->
               W.waits g i = R.waits r i
               && W.waiting_on g i = R.waiting_on r i
               && W.is_blocked g i = R.is_blocked r i
               && W.cycles_through g i = R.cycles_through r i)
             ids
        && W.on_cycle_from g ids = R.on_cycle_from r ids
      in
      List.for_all
        (fun (op, id, others) ->
          (match op with
          | 0 ->
              let holders =
                List.sort_uniq compare (List.filter (fun h -> h <> id) others)
              in
              if holders <> [] && not (W.is_blocked g id) then begin
                W.set_wait g ~waiter:id ~holders "e";
                R.set_wait r ~waiter:id ~holders "e"
              end
          | 1 ->
              W.clear_wait g id;
              R.clear_wait r id
          | 2 ->
              W.remove_txn g id;
              R.remove_txn r id
          | _ ->
              W.add_txn g id;
              R.add_txn r id);
          (* would_deadlock probes are pure; compare on the same args *)
          let holders =
            List.sort_uniq compare (List.filter (fun h -> h <> id) others)
          in
          (holders = []
          || W.is_blocked g id
          || W.would_deadlock g ~waiter:id ~holders
             = R.would_deadlock r ~waiter:id ~holders)
          && agree ())
        script)

(* qcheck: edge churn with live cycles, against the Digraph-backed
   reference. The script allows everything the schedulers do and more:
   re-blocking an already blocked waiter (edge replacement), closing
   cycles and leaving them live across steps, and dissolving them again
   by clears and removes. Every observable is compared after every step:
   the edges, the full cycle census, the cycle enumerations the resolver
   consumes, and a [would_deadlock] probe for every id as hypothetical
   waiter on the step's operand set. *)
let qcheck_churn_vs_reference =
  let module R = Waits_for_ref in
  QCheck.Test.make ~name:"live-cycle edge churn vs reference"
    ~count:200
    QCheck.(
      list_of_size Gen.(0 -- 25)
        (triple (int_bound 3) (int_range 0 9)
           (list_of_size Gen.(0 -- 2) (int_range 0 9))))
    (fun script ->
      let g = W.create () and r = R.create () in
      let ids = List.init 10 Fun.id in
      let agree step =
        W.txns g = R.txns r
        && W.edges g = R.edges r
        && W.is_exclusive_forest g = R.is_exclusive_forest r
        && W.on_cycle_from g ids = R.on_cycle_from r ids
        && List.for_all
             (fun i ->
               W.waits g i = R.waits r i
               && W.waiting_on g i = R.waiting_on r i
               && W.is_blocked g i = R.is_blocked r i
               && W.cycles_through ~limit:64 g i
                  = R.cycles_through ~limit:64 r i
               && (* pure probe: every id as hypothetical waiter on the
                     step's operand set *)
               let holders =
                 List.filter (fun h -> h <> i) (step : int list)
               in
               holders = []
               || W.would_deadlock g ~waiter:i ~holders
                  = R.would_deadlock r ~waiter:i ~holders)
             ids
      in
      List.for_all
        (fun (op, id, others) ->
          (match op with
          | 0 ->
              let holders =
                List.sort_uniq compare (List.filter (fun h -> h <> id) others)
              in
              if holders <> [] then begin
                (* no is_blocked guard: replacement re-blocks too *)
                W.set_wait g ~waiter:id ~holders "e";
                R.set_wait r ~waiter:id ~holders "e"
              end
          | 1 ->
              W.clear_wait g id;
              R.clear_wait r id
          | 2 ->
              W.remove_txn g id;
              R.remove_txn r id
          | _ ->
              W.add_txn g id;
              R.add_txn r id);
          agree others)
        script)

(* qcheck: the changed-waiter rule the resolution fixpoint stands on.
   Random set/clear/remove scripts on ids 0-9; as in the engine, the
   graph is settled only after a census seeded at [changed] comes back
   empty. After every step that census must equal the reference's census
   over every id, which fails once a cycle closes through a waiter that
   [set_wait] did not record. *)
let qcheck_changed_seeds_census =
  let module R = Waits_for_ref in
  QCheck.Test.make ~name:"changed waiters seed a full census" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 30)
        (triple (int_bound 2) (int_range 0 9)
           (list_of_size Gen.(0 -- 2) (int_range 0 9))))
    (fun script ->
      let g = W.create () and r = R.create () in
      let ids = List.init 10 Fun.id in
      List.for_all
        (fun (op, id, others) ->
          (match op with
          | 0 ->
              let holders =
                List.sort_uniq compare (List.filter (fun h -> h <> id) others)
              in
              if holders <> [] then begin
                W.set_wait g ~waiter:id ~holders "e";
                R.set_wait r ~waiter:id ~holders "e"
              end
          | 1 ->
              W.clear_wait g id;
              R.clear_wait r id
          | _ ->
              W.remove_txn g id;
              R.remove_txn r id);
          let census = W.on_cycle_from g (W.changed g) in
          if census = [] then W.settle g;
          census = R.on_cycle_from r ids)
        script)

(* The label filter never sees the stale label a cleared waiter keeps:
   the out-degree is tested first. *)
let test_filter_skips_stale_labels () =
  let g = W.create () in
  W.set_wait g ~waiter:1 ~holders:[ 3 ] "stale";
  W.clear_wait g 1;
  W.set_wait g ~waiter:4 ~holders:[ 3 ] "b";
  let label_ok l =
    if String.equal l "stale" then Alcotest.fail "filter saw a stale label";
    true
  in
  checkb "no cycle" false (W.would_deadlock ~label_ok g ~waiter:3 ~holders:[ 1 ])

(* qcheck: the site-filtered probe of the distributed block-time check.
   Random set/clear/remove scripts over ids 0-9 with wait labels from a
   four-letter alphabet and a random label -> site map. After every step,
   for every blocked waiter, the probe filtered to the waiter's own site
   (the site of its label) answers true exactly when the reference has a
   cycle through the waiter whose labels all map to that site; the
   unfiltered probe still answers whether any cycle passes through it. *)
let qcheck_site_filtered_probe =
  let module R = Waits_for_ref in
  let labels = [| "a"; "b"; "c"; "d" |] in
  QCheck.Test.make ~name:"site-filtered probe = local cycles of reference"
    ~count:300
    QCheck.(
      pair
        (array_of_size (Gen.return 4) (int_bound 2))
        (list_of_size Gen.(0 -- 30)
           (quad (int_bound 3) (int_range 0 9)
              (list_of_size Gen.(0 -- 2) (int_range 0 9))
              (int_bound 3))))
    (fun (site_of_label, script) ->
      let site l =
        let rec find i = if String.equal labels.(i) l then i else find (i + 1) in
        site_of_label.(find 0)
      in
      let g = W.create () and r = R.create () in
      let label v = snd (List.hd (R.waits r v)) in
      let agree w =
        (not (W.is_blocked g w))
        ||
        let holders = List.map fst (W.waits g w) in
        let s = site (label w) in
        let cycles = R.cycles_through r w in
        let local =
          List.exists
            (List.for_all (fun v -> Int.equal (site (label v)) s))
            cycles
        in
        W.would_deadlock
          ~label_ok:(fun l -> Int.equal (site l) s)
          g ~waiter:w ~holders
        = local
        && W.would_deadlock g ~waiter:w ~holders = (cycles <> [])
        && R.would_deadlock r ~waiter:w ~holders = (cycles <> [])
      in
      List.for_all
        (fun (op, id, others, l) ->
          (match op with
          | 0 | 1 ->
              let holders =
                List.sort_uniq compare (List.filter (fun h -> h <> id) others)
              in
              if holders <> [] then begin
                W.set_wait g ~waiter:id ~holders labels.(l);
                R.set_wait r ~waiter:id ~holders labels.(l)
              end
          | 2 ->
              W.clear_wait g id;
              R.clear_wait r id
          | _ ->
              W.remove_txn g id;
              R.remove_txn r id);
          List.for_all agree (List.init 10 Fun.id))
        script)

let () =
  Alcotest.run "prb_wfg"
    [
      ( "waits_for",
        [
          Alcotest.test_case "set/clear" `Quick test_set_and_clear_wait;
          Alcotest.test_case "replace" `Quick test_set_wait_replaces;
          Alcotest.test_case "self rejected" `Quick test_set_wait_self_rejected;
          Alcotest.test_case "remove txn" `Quick test_remove_txn;
          Alcotest.test_case "would_deadlock direct" `Quick test_would_deadlock_direct;
          Alcotest.test_case "would_deadlock transitive" `Quick
            test_would_deadlock_transitive;
          Alcotest.test_case "cycles through" `Quick test_cycles_through;
          Alcotest.test_case "stale cycle record" `Quick test_record_intact;
          Alcotest.test_case "forest shape" `Quick test_exclusive_forest;
          Alcotest.test_case "pp" `Quick test_pp;
          QCheck_alcotest.to_alcotest qcheck_would_deadlock_oracle;
          QCheck_alcotest.to_alcotest qcheck_dense_vs_reference;
          QCheck_alcotest.to_alcotest qcheck_churn_vs_reference;
          QCheck_alcotest.to_alcotest qcheck_changed_seeds_census;
          Alcotest.test_case "label filter skips stale labels" `Quick
            test_filter_skips_stale_labels;
          QCheck_alcotest.to_alcotest qcheck_site_filtered_probe;
        ] );
    ]
