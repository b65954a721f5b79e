(* The experiment harness: regenerates every figure of the paper and the
   quantitative sweeps behind its claims (experiment ids E1-E12, see
   DESIGN.md Section 5 and EXPERIMENTS.md), then reports micro-benchmark
   costs of the hot paths. The scaling and detection-policy sweeps (E13,
   E14) are `prb bench [--quick] [--policies] --json PATH`.

   Usage:
     dune exec bench/main.exe            full sweeps (a few minutes)
     dune exec bench/main.exe -- quick   scaled-down sweeps
     dune exec bench/main.exe -- E7      a single experiment section
*)

let sections =
  [
    ("E1-E5", "paper figures 1-5", Exp_figures.run);
    ("E3+FLOW", "where max flow decides the Section 3.2 cut", Exp_flow.run);
    ("E6+E11", "storage accounting and SDG+k", Exp_storage.run);
    ("E7+E8", "trade-off sweep and victim ablation", Exp_tradeoff.run);
    ("E9", "three-phase structure", Exp_structure.run);
    ("E10", "distributed systems", Exp_distrib.run);
    ("E12", "fault injection and recovery", Exp_faults.run);
    ("MICRO", "hot-path micro-benchmarks", Micro.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  Common.quick := List.mem "quick" args;
  let wanted =
    List.filter (fun a -> a <> "quick") args
  in
  let selected =
    if wanted = [] then sections
    else
      List.filter
        (fun (id, _, _) ->
          List.exists
            (fun w ->
              let contains hay needle =
                let nh = String.length hay and nn = String.length needle in
                let rec scan i =
                  i + nn <= nh
                  && (String.sub hay i nn = needle || scan (i + 1))
                in
                scan 0
              in
              contains id w)
            wanted)
        sections
  in
  if selected = [] then begin
    prerr_endline "no matching experiment section; available:";
    List.iter (fun (id, d, _) -> Printf.eprintf "  %-8s %s\n" id d) sections;
    exit 1
  end;
  print_endline
    "Deadlock Removal Using Partial Rollback — experiment harness";
  print_endline
    (if !Common.quick then "(quick mode: sweeps scaled down)"
     else "(full sweeps; pass `quick` to scale down)");
  List.iter (fun (_, _, run) -> run ()) selected
