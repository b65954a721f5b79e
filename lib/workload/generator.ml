module Rng = Prb_util.Rng
module Zipf = Prb_util.Zipf
module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Lock_mode = Prb_txn.Lock_mode

type params = {
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

(* --- Shared parts ------------------------------------------------------- *)

(* A write adds a constant below [n_consts] to its register's mix. *)
let n_consts = 1000
let consts = Array.init n_consts (fun c -> Expr.Const (Value.int c))
let zero = Value.int 0

(* The immutable values every program of one call is built from: the
   entities' names and their lock and unlock operations, and the
   registers with their mixes, compute steps and declarations. Programs
   point into these instead of holding copies; each keeps only its own
   [ops] array, reads and writes. Sharing is safe because nothing
   reachable from a program is ever mutated.

   One register per lock state: a register is written only in its own
   segment (the read and the computes coalesce there), so local variables
   never damage lock states and the clustering / three-phase knobs
   measure entity-write structure alone. *)
type parts = {
  names : string array;
  shared : Program.op array;  (** [Lock (Shared, names.(j))] *)
  exclusive : Program.op array;  (** [Lock (Exclusive, names.(j))] *)
  unlocks : Program.op array;
  regs : Expr.var array;  (** lock state i's register, ["r<i>"] *)
  mixes : Expr.t array;  (** [Mix (Var regs.(i))] *)
  computes : Program.op array;  (** segment i+1's local assignment *)
  locals : (Expr.var * Value.t) list array;
      (** the declarations of a program with k locks, built on first use *)
}

let parts names ~n_regs =
  let lock mode = Array.map (fun e -> Program.Lock (mode, e)) names in
  let regs = Array.init n_regs (fun i -> "r" ^ string_of_int i) in
  let mixes = Array.map (fun r -> Expr.Mix (Expr.Var r)) regs in
  let compute i r =
    Program.assign r (Expr.Add (mixes.(i), Expr.Var regs.(max 0 (i - 1))))
  in
  {
    names;
    shared = lock Lock_mode.Shared;
    exclusive = lock Lock_mode.Exclusive;
    unlocks = Array.map Program.unlock names;
    regs;
    mixes;
    computes = Array.mapi compute regs;
    locals = Array.make (n_regs + 1) [];
  }

(* k >= 1, so an empty list marks a declaration not built yet. *)
let locals parts k =
  match parts.locals.(k) with
  | [] ->
      let l = List.init k (fun i -> (parts.regs.(i), zero)) in
      parts.locals.(k) <- l;
      l
  | l -> l

(* --- Per-program scratch ------------------------------------------------ *)

(* Reused by every program of one call. *)
type scratch = {
  ranks : int array;  (** lock state i's entity, in draw order *)
  sorted : int array;  (** the drawn ranks ascending, for the membership test *)
  exclusive_at : bool array;  (** lock state i's mode *)
  planned : Program.op list array;  (** segment s's writes, newest first *)
}

let scratch n_locks =
  {
    ranks = Array.make n_locks 0;
    sorted = Array.make n_locks 0;
    exclusive_at = Array.make n_locks false;
    planned = Array.make (n_locks + 1) [];
  }

(* The position at which [i] belongs in [s.sorted.(0 .. n-1)]. *)
let rec position s i lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if s.sorted.(mid) < i then position s i (mid + 1) hi
    else position s i lo mid

(* The smallest rank not drawn yet: the first gap in [s.sorted]. *)
let rec smallest_fresh s n j =
  if j < n && s.sorted.(j) = j then smallest_fresh s n (j + 1) else j

let add s n pos i =
  Array.blit s.sorted pos s.sorted (pos + 1) (n - pos);
  s.sorted.(pos) <- i;
  s.ranks.(n) <- i

(* Draw [k] distinct entities under the skew distribution. *)
let draw_ranks zipf s rng k =
  let n = ref 0 and guard = ref 0 in
  while !n < k do
    if !guard > 10_000 then begin
      (* Pathological skew: fall back to a linear scan for fresh ranks. *)
      let i = smallest_fresh s !n 0 in
      add s !n i i;
      incr n;
      guard := 0
    end
    else begin
      let i = Zipf.sample zipf rng in
      let pos = position s i 0 !n in
      if pos < !n && s.sorted.(pos) = i then incr guard
      else begin
        add s !n pos i;
        incr n;
        guard := 0
      end
    end
  done

(* --- Programs ----------------------------------------------------------- *)

let check_bounds params =
  if params.min_locks < 1 || params.max_locks < params.min_locks then
    invalid_arg "Generator: bad lock bounds";
  if params.max_locks > params.n_entities then
    invalid_arg "Generator: more locks than entities"

(* The rest of one program, after its lock count [k] and its entities
   [s.ranks.(0 .. k-1)], which index [parts]. *)
let assemble params parts s rng ~k ~name =
  for i = 0 to k - 1 do
    s.exclusive_at.(i) <- not (Rng.chance rng params.read_fraction)
  done;
  (* Plan writes: entity locked at lock state [i] may be written in
     segments [i+1 .. k]; clustering biases towards [i+1]. *)
  Array.fill s.planned 0 (k + 1) [];
  for i = 0 to k - 1 do
    if s.exclusive_at.(i) then begin
      let n_writes = Rng.int_in rng params.min_writes params.max_writes in
      for _ = 1 to n_writes do
        let segment =
          if params.three_phase then k
            (* acquire/update/release: all updates after the last lock *)
          else if Rng.chance rng params.clustering then i + 1
          else Rng.int_in rng (i + 1) k
        in
        let expr = Expr.Add (parts.mixes.(i), consts.(Rng.int rng n_consts)) in
        s.planned.(segment) <-
          Program.Write (parts.names.(s.ranks.(i)), expr) :: s.planned.(segment)
      done
    end
  done;
  (* Assemble back to front: lock i, then segment i+1 = read + compute +
     planned writes; the unlocks last. *)
  let ops = ref [] in
  if params.explicit_unlocks then
    for i = k - 1 downto 0 do
      ops := parts.unlocks.(s.ranks.(i)) :: !ops
    done;
  for i = k - 1 downto 0 do
    ops := List.rev_append s.planned.(i + 1) !ops;
    for _ = 1 to params.compute_ops do
      ops := parts.computes.(i) :: !ops
    done;
    let e = s.ranks.(i) in
    ops := Program.Read (parts.names.(e), parts.regs.(i)) :: !ops;
    ops :=
      (if s.exclusive_at.(i) then parts.exclusive.(e) else parts.shared.(e))
      :: !ops
  done;
  let program = Program.make ~name ~locals:(locals parts k) !ops in
  (match Program.validate program with
  | Ok () -> ()
  | Error ((i, v) :: _) ->
      invalid_arg
        (Fmt.str "Generator: produced invalid program (op %d: %a)" i
           Program.pp_violation v)
  | Error [] -> assert false);
  program

let generate_one ?zipf params rng ~name =
  check_bounds params;
  (* The sampler's rank table is O(n_entities) floats and deterministic in
     [params]; callers generating many programs pass one shared table
     instead of paying that allocation per transaction. *)
  let zipf =
    match zipf with
    | Some z -> z
    | None -> Zipf.make ~n:params.n_entities ~theta:params.zipf_theta
  in
  let k = Rng.int_in rng params.min_locks params.max_locks in
  let s = scratch k in
  draw_ranks zipf s rng k;
  (* Parts for the drawn entities alone: lock state i's entity is part i. *)
  let names = Array.init k (fun i -> entity_name s.ranks.(i)) in
  let parts = parts names ~n_regs:k in
  for i = 0 to k - 1 do
    s.ranks.(i) <- i
  done;
  assemble params parts s rng ~k ~name

let generate params ~seed ~n =
  let rng = Rng.make seed in
  let zipf = Zipf.make ~n:params.n_entities ~theta:params.zipf_theta in
  (* Built with the first program, so a call for none checks no bounds. *)
  let shared =
    lazy
      (check_bounds params;
       let names = Array.init params.n_entities entity_name in
       (parts names ~n_regs:params.max_locks, scratch params.max_locks))
  in
  List.init n (fun i ->
      let rng = Rng.split rng in
      let parts, s = Lazy.force shared in
      let k = Rng.int_in rng params.min_locks params.max_locks in
      draw_ranks zipf s rng k;
      assemble params parts s rng ~k ~name:(Printf.sprintf "w%04d" i))
