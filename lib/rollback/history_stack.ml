module Value = Prb_storage.Value

(* Arena-backed representation: the retained versions live in a pair of
   parallel growable arrays (lock indices / values), oldest at [start],
   newest at [start + len - 1], indices strictly increasing. The
   write-coalescing fast path (two writes in the same lock segment)
   stores in place; appending past capacity first compacts the window to
   the array base, then doubles — so a bounded-budget history reuses the
   same buffers for its whole life, and a {!Pool} recycles those buffers
   across histories (grant/release churn allocates nothing in steady
   state). *)
type t = {
  mutable budget : int;
  mutable created : int;
  mutable initial : Value.t;
  mutable idxs : int array;
  mutable vals : Value.t array;
  mutable start : int;
  mutable len : int;
  mutable damaged : (int * int) list; (* [lo, hi) ascending, disjoint, merged *)
  mutable peak : int;
}

let create ~budget ~created_at ~initial =
  if budget < 1 then invalid_arg "History_stack.create: budget < 1";
  {
    budget;
    created = created_at;
    initial;
    idxs = [||];
    vals = [||];
    start = 0;
    len = 0;
    damaged = [];
    peak = 1;
  }

let created_at t = t.created

let current t =
  if t.len = 0 then t.initial else t.vals.(t.start + t.len - 1)

let n_versions t = t.len
let n_copies t = t.len + 1
let peak_copies t = t.peak

let[@lint.allow
     "A1: runs only when the bounded budget evicts a version; merging \
      the damaged-interval list is off the within-budget coalescing \
      path"] add_damage t lo hi =
  if lo < hi then begin
    (* Insert and merge; the list stays short (one interval per eviction,
       adjacent evictions merge). *)
    let merged =
      let rec insert = function
        | [] -> [ (lo, hi) ]
        | (a, b) :: rest ->
            if hi < a then (lo, hi) :: (a, b) :: rest
            else if b < lo then (a, b) :: insert rest
            else
              (* overlap or adjacency *)
              insert_merged (min a lo) (max b hi) rest
      and insert_merged a b = function
        | [] -> [ (a, b) ]
        | (c, d) :: rest ->
            if b < c then (a, b) :: (c, d) :: rest
            else insert_merged a (max b d) rest
      in
      insert t.damaged
    in
    t.damaged <- merged
  end

(* Evict the oldest retained version; the states it covered — from its own
   write index up to the next version's — become damaged. *)
let evict_oldest t =
  assert (t.len >= 2);
  let lo = t.idxs.(t.start) and hi = t.idxs.(t.start + 1) in
  t.start <- t.start + 1;
  t.len <- t.len - 1;
  add_damage t lo hi

let[@lint.allow
     "A1: amortized geometric growth — compaction reuses the buffers in \
      place and doubling happens only past capacity, never in steady \
      state"] append t lock_index value =
  let cap = Array.length t.idxs in
  if t.start + t.len >= cap then begin
    if t.start > 0 then begin
      (* slide the window back to the base; buffers are reused in place *)
      Array.blit t.idxs t.start t.idxs 0 t.len;
      Array.blit t.vals t.start t.vals 0 t.len;
      t.start <- 0
    end;
    if t.len >= Array.length t.idxs then begin
      let ncap = max 4 (2 * Array.length t.idxs) in
      let ni = Array.make ncap 0 in
      let nv = Array.make ncap t.initial in
      Array.blit t.idxs 0 ni 0 t.len;
      Array.blit t.vals 0 nv 0 t.len;
      t.idxs <- ni;
      t.vals <- nv
    end
  end;
  t.idxs.(t.start + t.len) <- lock_index;
  t.vals.(t.start + t.len) <- value;
  t.len <- t.len + 1

let[@hot] write t ~lock_index value =
  if t.len > 0 && lock_index < t.idxs.(t.start + t.len - 1) then
    invalid_arg "History_stack.write: lock index went backwards";
  if t.len > 0 && t.idxs.(t.start + t.len - 1) = lock_index then
    (* Same segment: only the final value of a segment is observable at
       any lock state, so coalesce — in place, no allocation. *)
    t.vals.(t.start + t.len - 1) <- value
  else begin
    append t lock_index value;
    if t.len > t.budget then evict_oldest t
  end;
  if t.len + 1 > t.peak then t.peak <- t.len + 1

let damaged t = t.damaged

(* Top-level so a restorability probe builds no closure: the victim
   costing path asks it once per history per lock state it scans. *)
let rec undamaged (q : int) = function
  | [] -> true
  | (lo, hi) :: rest -> (q < lo || hi <= q) && undamaged q rest

let is_restorable t q = undamaged q t.damaged

let value_at t q =
  if not (is_restorable t q) then None
  else begin
    (* newest version written at or before [q], else the initial *)
    let rec newest_at i =
      if i < t.start then t.initial
      else if t.idxs.(i) <= q then t.vals.(i)
      else newest_at (i - 1)
    in
    Some (newest_at (t.start + t.len - 1))
  end

let truncate t q =
  if not (is_restorable t q) then
    invalid_arg "History_stack.truncate: target state is damaged";
  (* Indices are strictly increasing: the survivors are a prefix of the
     window, kept in place. *)
  while t.len > 0 && t.idxs.(t.start + t.len - 1) > q do
    t.len <- t.len - 1
  done;
  (* Damage intervals are ascending and disjoint, so those ending at or
     before [q] are a prefix. *)
  let rec keep = function
    | (lo, hi) :: rest when hi <= q -> (lo, hi) :: keep rest
    | _ -> []
  in
  t.damaged <- keep t.damaged

let pp ppf t =
  let versions =
    let rec collect i acc =
      if i < t.start then acc
      else collect (i - 1) ((t.idxs.(i), t.vals.(i)) :: acc)
    in
    (* newest first, matching the original cons-list rendering *)
    List.rev (collect (t.start + t.len - 1) [])
  in
  Fmt.pf ppf "@[<h>history(created=%d, current=%a, versions=[%a], damaged=[%a])@]"
    t.created Value.pp (current t)
    Fmt.(
      list ~sep:(any "; ") (fun ppf (i, v) -> pf ppf "%d:%a" i Value.pp v))
    versions
    Fmt.(list ~sep:(any "; ") (pair ~sep:(any ",") int int))
    t.damaged

module Pool = struct
  type stack = t

  let create_stack = create

  (* The free stacks sit in [free.(0 .. pooled - 1)], a stack in a
     growable array, so a release conses nothing; slots at or above
     [pooled] are stale and never read. *)
  type t = { mutable free : stack array; mutable pooled : int }

  let create () = { free = [||]; pooled = 0 }

  let reset s ~budget ~created_at ~initial =
    if budget < 1 then invalid_arg "History_stack.Pool.acquire: budget < 1";
    s.budget <- budget;
    s.created <- created_at;
    s.initial <- initial;
    s.start <- 0;
    s.len <- 0;
    s.damaged <- [];
    s.peak <- 1;
    (* Drop references to the previous owner's values so recycling never
       retains (or leaks into observation — see the contamination test)
       another history's data. *)
    Array.fill s.vals 0 (Array.length s.vals) initial;
    s

  let acquire t ~budget ~created_at ~initial =
    if t.pooled = 0 then create_stack ~budget ~created_at ~initial
    else begin
      t.pooled <- t.pooled - 1;
      reset t.free.(t.pooled) ~budget ~created_at ~initial
    end

  let release t s =
    if t.pooled = Array.length t.free then begin
      let free = Array.make (max 8 (2 * t.pooled)) s in
      Array.blit t.free 0 free 0 t.pooled;
      t.free <- free
    end;
    t.free.(t.pooled) <- s;
    t.pooled <- t.pooled + 1

  let n_pooled t = t.pooled
end
