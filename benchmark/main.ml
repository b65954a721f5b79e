(* dune exec ./benchmark/main.exe -- --workload W --seed N [--seconds S]
   [--trace 0|1] [--spans FILE]

   Runs one workload of the repository benchmark on one thread, prints
   every metric as "name value unit n= q1= q3=", then, as the last line,
   a JSON object with the end-to-end metrics (--trace 0) or the
   per-layer ones (--trace 1). Exits 1 if any transaction failed or any
   check did not hold. *)

open Prb_benchmark

let () =
  let workload = ref "" and seed = ref 11 and seconds = ref 15.0 in
  let trace = ref 0 and spans = ref "" in
  let names = String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all) in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ names);
      ("--seed", Arg.Set_int seed, "N seed of the generated store and programs (default 11)");
      ("--seconds", Arg.Set_float seconds, "S time spent in timed repetitions (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics last");
      ("--spans", Arg.Set_string spans, "FILE write the traced repetition's spans as JSON lines");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline msg;
    Arg.usage specs usage;
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds >= 0.0) then fail "--seconds must be non-negative";
  match Workloads.find !workload with
  | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  | Some w ->
      let spans = if !spans = "" then None else Some !spans in
      let r = Bench.run ?spans w ~seed:!seed ~seconds:!seconds in
      Bench.print r ~trace:(!trace = 1);
      exit (Bench.exit_code r)
