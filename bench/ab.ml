(* Paired A/B runs of two builds of the repository benchmark.

   Usage:
     dune exec bench/ab.exe -- [--pairs N] [--benchmark FILE] \
       A_EXE B_EXE -- ARGS

   Runs [A_EXE ARGS] and [B_EXE ARGS] in N alternating pairs (default 10):
   A first in odd pairs, B first in even ones, so a slow phase of the
   machine touches both sides alike. Each run's last JSON line is its
   result. The command fails if a run exits non-zero or reports
   ["correct": false].

   For every metric the lines report, it prints each side's median and
   quartiles, the B/A ratio of the medians and the number of pairs B won.
   A metric's direction is its [better] in FILE (default BENCHMARK.json);
   a metric FILE does not list gets no win count. The command reads no
   clock: every number is the benchmark's own. *)

module Json = Prb_util.Json
module Stats = Prb_util.Stats
module Table = Prb_util.Table

let usage =
  "ab.exe [--pairs N] [--benchmark FILE] A_EXE B_EXE -- ARGS"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ab: " ^ msg);
      exit 1)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Metric name -> true when higher is better, from the [end_to_end] and
   [per_layer] lists. *)
let directions path =
  let j = Json.parse (read_file path) in
  List.concat_map
    (fun section ->
      match Json.member section j with
      | None -> []
      | Some l ->
          List.map
            (fun m ->
              let name = Json.to_string (Json.field "name" m) in
              let better = Json.to_string (Json.field "better" m) in
              (name, String.equal better "higher"))
            (Json.to_list l))
    [ "end_to_end"; "per_layer" ]

let last_json_line out =
  let lines = List.map String.trim (String.split_on_char '\n' out) in
  match
    List.rev (List.filter (fun l -> String.length l > 0 && l.[0] = '{') lines)
  with
  | l :: _ -> Some l
  | [] -> None

(* One run: its metrics, in the order the line reports them. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail "%s exited %d" exe c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "%s stopped by signal %d" exe s);
  match last_json_line out with
  | None -> fail "%s printed no JSON line" exe
  | Some line -> (
      match Json.parse line with
      | exception Json.Parse_error msg -> fail "%s: bad JSON line: %s" exe msg
      | j ->
          if not (Json.to_bool (Json.field "correct" j)) then
            fail "%s reported \"correct\": false" exe;
          (match Json.field "metrics" j with
          | Json.Obj fields ->
              List.map
                (fun (name, m) -> (name, Json.to_float (Json.field "value" m)))
                fields
          | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Arr _ ->
              fail "%s: \"metrics\" is not an object" exe))

let num x =
  if Float.abs x >= 100.0 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.4g" x

let spread xs =
  Printf.sprintf "%s [%s, %s]"
    (num (Stats.median xs))
    (num (Stats.percentile xs 25.0))
    (num (Stats.percentile xs 75.0))

let value name metrics =
  match List.assoc_opt name metrics with Some v -> v | None -> nan

let report ~directions ~pairs a b =
  let names = List.map fst (List.hd a) in
  let t =
    Table.create
      ~title:(Printf.sprintf "%d pair(s), B against A" pairs)
      [
        ("metric", Table.Left);
        ("better", Table.Left);
        ("A median [q1, q3]", Table.Right);
        ("B median [q1, q3]", Table.Right);
        ("B/A", Table.Right);
        ("B wins", Table.Right);
      ]
  in
  List.iter
    (fun name ->
      let xs = Array.of_list (List.map (value name) a) in
      let ys = Array.of_list (List.map (value name) b) in
      let better, wins =
        match List.assoc_opt name directions with
        | None -> ("?", "-")
        | Some higher ->
            let won = ref 0 in
            Array.iteri
              (fun i x ->
                if (higher && ys.(i) > x) || ((not higher) && ys.(i) < x) then
                  incr won)
              xs;
            ( (if higher then "higher" else "lower"),
              Printf.sprintf "%d/%d" !won pairs )
      in
      Table.add_row t
        [
          name;
          better;
          spread xs;
          spread ys;
          (let r = Stats.median ys /. Stats.median xs in
           if Float.is_finite r then Printf.sprintf "%.3f" r else "-");
          wins;
        ])
    names;
  Table.print t

let () =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | a :: rest -> split (a :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let ours, args = split [] (List.tl (Array.to_list Sys.argv)) in
  let bad msg =
    prerr_endline ("ab: " ^ msg);
    prerr_endline ("usage: " ^ usage);
    exit 2
  in
  let rec options ~pairs ~bench = function
    | "--pairs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> options ~pairs:n ~bench rest
        | _ -> bad "--pairs takes a positive integer")
    | "--benchmark" :: f :: rest -> options ~pairs ~bench:f rest
    | [ a; b ] -> (pairs, bench, a, b)
    | _ -> bad "expected two executables before --"
  in
  let pairs, bench, a_exe, b_exe =
    options ~pairs:10 ~bench:"BENCHMARK.json" ours
  in
  let directions =
    match directions bench with
    | d -> d
    | exception (Sys_error msg | Json.Parse_error msg) ->
        bad (bench ^ ": " ^ msg)
  in
  let a = ref [] and b = ref [] in
  for p = 1 to pairs do
    let a_first = p mod 2 = 1 in
    Printf.eprintf "ab: pair %d/%d, %s first\n%!" p pairs
      (if a_first then "A" else "B");
    if a_first then begin
      a := run a_exe args :: !a;
      b := run b_exe args :: !b
    end
    else begin
      b := run b_exe args :: !b;
      a := run a_exe args :: !a
    end
  done;
  report ~directions ~pairs (List.rev !a) (List.rev !b)
