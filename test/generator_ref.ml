(* Reference implementation of [Generator], retained verbatim from the
   version that formatted every name per use and kept its per-program
   scratch in hashtables, so the qcheck differential property in
   test_workload can assert that the shared-parts rewrite draws the same
   programs. Its [params] is the generator's own record type, so one
   value drives both. Not used by any engine. *)

module Rng = Prb_util.Rng
module Zipf = Prb_util.Zipf
module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr

type params = Prb_workload.Generator.params = {
  n_entities : int;
  min_locks : int;
  max_locks : int;
  read_fraction : float;
  zipf_theta : float;
  min_writes : int;
  max_writes : int;
  clustering : float;
  compute_ops : int;
  three_phase : bool;
  explicit_unlocks : bool;
}

let default_params =
  {
    n_entities = 64;
    min_locks = 3;
    max_locks = 6;
    read_fraction = 0.3;
    zipf_theta = 0.6;
    min_writes = 1;
    max_writes = 2;
    clustering = 0.5;
    compute_ops = 1;
    three_phase = false;
    explicit_unlocks = true;
  }

let entity_name i = Printf.sprintf "e%04d" i

let populate params =
  let store = Store.create () in
  for i = 0 to params.n_entities - 1 do
    Store.define store (entity_name i)
      (Value.mix (Value.int (i + 1)))
  done;
  store

(* One register per lock state: a register is written only in its own
   segment (the read and the computes coalesce there), so local variables
   never damage lock states and the clustering / three-phase knobs
   measure entity-write structure alone. *)
let reg i = Printf.sprintf "r%d" i

(* Draw [k] distinct entities under the skew distribution. *)
let draw_entities zipf rng k =
  let seen = Hashtbl.create 8 in
  let rec draw acc remaining guard =
    if remaining = 0 then List.rev acc
    else if guard > 10_000 then
      (* Pathological skew: fall back to a linear scan for fresh ranks. *)
      let rec fresh i =
        if Hashtbl.mem seen i then fresh (i + 1) else i
      in
      let i = fresh 0 in
      Hashtbl.replace seen i ();
      draw (i :: acc) (remaining - 1) 0
    else
      let i = Zipf.sample zipf rng in
      if Hashtbl.mem seen i then draw acc remaining (guard + 1)
      else begin
        Hashtbl.replace seen i ();
        draw (i :: acc) (remaining - 1) 0
      end
  in
  draw [] k 0

let generate_one ?zipf params rng ~name =
  if params.min_locks < 1 || params.max_locks < params.min_locks then
    invalid_arg "Generator: bad lock bounds";
  if params.max_locks > params.n_entities then
    invalid_arg "Generator: more locks than entities";
  (* The sampler's rank table is O(n_entities) floats and deterministic in
     [params]; callers generating many programs pass one shared table
     instead of paying that allocation per transaction. *)
  let zipf =
    match zipf with
    | Some z -> z
    | None -> Zipf.make ~n:params.n_entities ~theta:params.zipf_theta
  in
  let k =
    Rng.int_in rng params.min_locks (min params.max_locks params.n_entities)
  in
  let ranks = draw_entities zipf rng k in
  let entities = List.map entity_name ranks in
  let modes =
    List.map
      (fun _ ->
        if Rng.chance rng params.read_fraction then Prb_txn.Lock_mode.Shared
        else Prb_txn.Lock_mode.Exclusive)
      entities
  in
  (* Plan writes: entity locked at lock state [i] may be written in
     segments [i+1 .. k]; clustering biases towards [i+1]. *)
  let planned : (int, Program.op list ref) Hashtbl.t = Hashtbl.create 8 in
  let plan segment op =
    match Hashtbl.find_opt planned segment with
    | Some l -> l := op :: !l
    | None -> Hashtbl.replace planned segment (ref [ op ])
  in
  List.iteri
    (fun i (e, mode) ->
      if Prb_txn.Lock_mode.equal mode Prb_txn.Lock_mode.Exclusive then begin
        let n_writes = Rng.int_in rng params.min_writes params.max_writes in
        for _ = 1 to n_writes do
          let segment =
            if params.three_phase then k
              (* acquire/update/release: all updates after the last lock *)
            else if Rng.chance rng params.clustering then i + 1
            else Rng.int_in rng (i + 1) k
          in
          let expr =
            Expr.Add
              (Expr.Mix (Expr.Var (reg i)), Expr.Const (Value.int (Rng.int rng 1000)))
          in
          plan segment (Program.write e expr)
        done
      end)
    (List.combine entities modes);
  (* Assemble: lock i, then segment i+1 = read + compute + planned writes. *)
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  List.iteri
    (fun i (e, mode) ->
      emit (Program.Lock (mode, e));
      emit (Program.read e (reg i));
      let prev = reg (max 0 (i - 1)) in
      for _ = 1 to params.compute_ops do
        emit
          (Program.assign (reg i)
             (Expr.Add (Expr.Mix (Expr.Var (reg i)), Expr.Var prev)))
      done;
      match Hashtbl.find_opt planned (i + 1) with
      | Some l -> List.iter emit (List.rev !l)
      | None -> ())
    (List.combine entities modes);
  if params.explicit_unlocks then List.iter (fun e -> emit (Program.unlock e)) entities;
  let locals = List.init k (fun i -> (reg i, Value.int 0)) in
  let program = Program.make ~name ~locals (List.rev !ops) in
  (match Program.validate program with
  | Ok () -> ()
  | Error ((i, v) :: _) ->
      invalid_arg
        (Fmt.str "Generator: produced invalid program (op %d: %a)" i
           Program.pp_violation v)
  | Error [] -> assert false);
  program

let generate params ~seed ~n =
  let rng = Rng.make seed in
  let zipf = Zipf.make ~n:params.n_entities ~theta:params.zipf_theta in
  List.init n (fun i ->
      generate_one ~zipf params (Rng.split rng) ~name:(Printf.sprintf "w%04d" i))
