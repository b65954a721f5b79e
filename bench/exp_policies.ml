(* E14: detection-policy sweep — each deferred policy (adaptive, and the
   periodic override) against eager detection at low/high contention,
   with and without a detector-outage fault plan, on the centralised
   engine with the starvation guard armed. Reports wall-time
   speedup over eager at equal commits plus the liveness counters
   (detection passes, watchdog fires, longest blocking episode), and
   folds the points into BENCH_scale.json next to E13's so the perf
   trajectory carries both (see EXPERIMENTS.md E14). *)

module Scale = Prb_bench_scale.Scale

let json_path = "BENCH_scale.json"

let run () =
  Common.header "E14" "detection-policy sweep (deferral vs eager)";
  let quick = !Common.quick in
  let policies = Scale.sweep_policies ~quick () in
  Scale.print_policy_table policies;
  (match Scale.best_central_speedup policies with
  | Some (policy, s) ->
      Common.note
        "best high-contention speedup over eager at equal commits: %.2fx (%s)"
        s policy
  | None ->
      Common.note
        "no deferred policy matched eager's commits at high contention");
  (* Compose with E13: keep its points if the file already has them, so
     running E13 then E14 (or either alone) leaves a coherent file. *)
  let points =
    try Scale.load ~path:json_path
    with Sys_error _ | Scale.Parse_error _ -> []
  in
  Scale.write_json ~path:json_path ~quick ~policies points;
  Common.note "wrote %s (%d E13 + %d E14 points%s)" json_path
    (List.length points) (List.length policies)
    (if quick then ", quick mode" else "");
  Common.note
    "eager detection pays a cycle search on every blocked request — at\n\
     high contention that is most of the wall clock. The deferred\n\
     policies batch that work into scheduled sweeps; the stall watchdog\n\
     and the starvation guard bound what deferral may cost any single\n\
     transaction."
