(* Smoke test for the umbrella [Prb] module: the re-exports compose into
   the README's quickstart. *)

open Prb

let checkb = Alcotest.(check bool)

let test_umbrella_quickstart () =
  let store = Store.of_list [ ("a", Value.int 100); ("b", Value.int 100) ] in
  let sched = Scheduler.create store in
  let program name src dst amount =
    Program.make ~name
      ~locals:[ ("bal", Value.int 0) ]
      [
        Program.lock_x src;
        Program.read src "bal";
        Program.write src Expr.(var "bal" - int amount);
        Program.lock_x dst;
        Program.read dst "bal";
        Program.write dst Expr.(var "bal" + int amount);
      ]
  in
  let _ = Scheduler.submit sched (program "ab" "a" "b" 10) in
  let _ = Scheduler.submit sched (program "ba" "b" "a" 25) in
  Scheduler.run sched;
  checkb "all committed" true (Scheduler.all_committed sched);
  checkb "serializable" true (History.serializable (Scheduler.history sched));
  checkb "conserved" true
    (Value.as_int (Store.get store "a") + Value.as_int (Store.get store "b")
    = 200)

let test_umbrella_surface () =
  (* touch one item from every re-exported module so a missing export is
     a compile error here *)
  checkb "strategy" true (Strategy.to_string Strategy.Sdg = "sdg");
  checkb "policy" true (Policy.of_string "youngest" = Some Policy.Youngest);
  checkb "detection policy" true
    (Detection_policy.of_string "periodic:32"
    = Some (Detection_policy.Periodic 32));
  checkb "no lazy detection policy" true
    (Detection_policy.of_string "lazy:8" = None);
  checkb "zipf" true (Zipf.n (Zipf.make ~n:3 ~theta:0.5) = 3);
  checkb "rng" true (Rng.int (Rng.make 1) 10 < 10);
  checkb "ugraph" true (Ugraph.n_vertices (Ugraph.create ()) = 0);
  checkb "cutset" true (Cutset.greedy { Cutset.cycles = []; cost = (fun _ -> 1.) } = []);
  checkb "stats" true (Stats.count (Stats.create ()) = 0);
  checkb "table" true (String.length (Table.render (Table.create [ ("x", Table.Left) ])) > 0);
  checkb "lock table" true (Lock_table.is_fair (Lock_table.create (Store.create ())));
  checkb "waits-for" true (Waits_for.txns (Waits_for.create ()) = []);
  checkb "history stack" true
    (Value.equal
       (History_stack.current
          (History_stack.create ~budget:1 ~created_at:0 ~initial:(Value.int 7)))
       (Value.int 7));
  checkb "allocation" true (Allocation.lookup [] "G:x" = 0);
  checkb "parser" true
    (match Parser.parse "transaction t\n  lockX(a)\n" with
    | Ok p -> p.Program.name = "t"
    | Error _ -> false);
  checkb "sdg view" true
    (Sdg_view.well_defined_states
       (Program.make ~name:"p" ~locals:[] [ Program.lock_x "a" ])
    = [ 0; 1 ]);
  checkb "generator" true
    (List.length (Generator.generate Generator.default_params ~seed:1 ~n:2) = 2);
  checkb "scenarios" true
    (Program.validate (Scenarios.transfer ~name:"t" ~from_acct:0 ~to_acct:1 ~amount:1)
    = Ok ());
  checkb "dist scheduler config" true
    (Dist_scheduler.default_config.Dist_scheduler.n_sites = 4);
  checkb "dist sim config" true (Dist_sim.default_config.Dist_sim.mpl = 8);
  checkb "txn id" true (Txn_id.equal 3 3 && Txn_id.compare 1 2 < 0);
  checkb "site id" true (Site_id.equal 0 0 && Site_id.compare 2 1 > 0);
  checkb "util" true
    (let tbl = Hashtbl.create 4 in
     Hashtbl.replace tbl 2 "b";
     Hashtbl.replace tbl 1 "a";
     Util.sorted_bindings Int.compare tbl = [ (1, "a"); (2, "b") ]);
  checkb "lint" true (Lint.rule_of_id "d1" = Some Lint.D1)

let () =
  Alcotest.run "prb_umbrella"
    [
      ( "umbrella",
        [
          Alcotest.test_case "quickstart composes" `Quick test_umbrella_quickstart;
          Alcotest.test_case "surface complete" `Quick test_umbrella_surface;
        ] );
    ]
