(* Dense int-indexed building blocks for the flat hot paths (DESIGN.md
   Section 12): a string interner mapping entity names to contiguous slot
   ids, a generational slot allocator for recyclable buffers, and an
   int-payload priority queue whose steady-state push/pop allocates
   nothing. All three are deterministic: behaviour depends only on the
   call sequence, never on hashing or allocation addresses. *)

let grow_int_array arr size fill =
  let cap = Array.length arr in
  if size < cap then arr
  else begin
    let ncap = max 16 (max (size + 1) (2 * cap)) in
    let narr = Array.make ncap fill in
    Array.blit arr 0 narr 0 cap;
    narr
  end

module Interner = struct
  type t = {
    fwd : (string, int) Hashtbl.t;
    mutable names : string array;
    mutable n : int;
  }

  let create ?(size_hint = 64) () =
    { fwd = Hashtbl.create size_hint; names = [||]; n = 0 }

  let[@lint.allow
       "A1: allocates only when a fresh entity name is interned; repeat \
        lookups on the hot lock path hit the table"] intern t name =
    match Hashtbl.find_opt t.fwd name with
    | Some id -> id
    | None ->
        let id = t.n in
        if id >= Array.length t.names then begin
          let ncap = max 16 (2 * Array.length t.names) in
          let nn = Array.make ncap "" in
          Array.blit t.names 0 nn 0 t.n;
          t.names <- nn
        end;
        t.names.(id) <- name;
        t.n <- id + 1;
        Hashtbl.replace t.fwd name id;
        id

  let find_opt t name = Hashtbl.find_opt t.fwd name

  let name t id =
    if id < 0 || id >= t.n then invalid_arg "Interner.name: unknown id";
    t.names.(id)

  let count t = t.n
end

module Slots = struct
  type t = {
    mutable gens : int array;  (* generation per slot, bumped on release *)
    mutable live : bool array;
    mutable free : int array;  (* LIFO free list *)
    mutable n_free : int;
    mutable n : int;  (* slots ever created *)
  }

  let create () = { gens = [||]; live = [||]; free = [||]; n_free = 0; n = 0 }

  let alloc t =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      let s = t.free.(t.n_free) in
      t.live.(s) <- true;
      s
    end
    else begin
      let s = t.n in
      t.gens <- grow_int_array t.gens s 0;
      if s >= Array.length t.live then begin
        let nl = Array.make (max 16 (2 * Array.length t.live)) false in
        Array.blit t.live 0 nl 0 (Array.length t.live);
        t.live <- nl
      end;
      t.live.(s) <- true;
      t.n <- s + 1;
      s
    end

  let release t s =
    if s < 0 || s >= t.n || not t.live.(s) then
      invalid_arg "Slots.release: slot not live";
    t.live.(s) <- false;
    t.gens.(s) <- t.gens.(s) + 1;
    t.free <- grow_int_array t.free t.n_free 0;
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1

  let generation t s =
    if s < 0 || s >= t.n then invalid_arg "Slots.generation: unknown slot";
    t.gens.(s)

  let in_use t s = s >= 0 && s < t.n && t.live.(s)
  let capacity t = t.n
  let n_live t = t.n - t.n_free

  (* A handle packs (slot, generation) so a recycled slot id can never be
     mistaken for the transaction/segment that used to own it. *)
  let handle t s = (s * 1_000_003) + (t.gens.(s) mod 1_000_003)
  let handle_valid t h =
    let s = h / 1_000_003 in
    in_use t s && h - (s * 1_000_003) = t.gens.(s) mod 1_000_003
end

module Pqueue = struct
  (* Int-payload binary min-heap on parallel arrays. Tie-break is
     (priority, push sequence): equal-priority events fire in the order
     they were scheduled. Popping deposits the entry into the [cur_*]
     fields instead of allocating an option/tuple. *)
  type t = {
    mutable prio : int array;
    mutable seq : int array;
    mutable tag : int array;
    mutable a : int array;
    mutable b : int array;
    mutable size : int;
    mutable next_seq : int;
    mutable cur_prio : int;
    mutable cur_tag : int;
    mutable cur_a : int;
    mutable cur_b : int;
  }

  let create () =
    {
      prio = [||];
      seq = [||];
      tag = [||];
      a = [||];
      b = [||];
      size = 0;
      next_seq = 0;
      cur_prio = 0;
      cur_tag = 0;
      cur_a = 0;
      cur_b = 0;
    }

  let is_empty t = t.size = 0
  let size t = t.size

  let less t i j =
    t.prio.(i) < t.prio.(j)
    || (t.prio.(i) = t.prio.(j) && t.seq.(i) < t.seq.(j))

  let swap t i j =
    let tmp = t.prio.(i) in t.prio.(i) <- t.prio.(j); t.prio.(j) <- tmp;
    let tmp = t.seq.(i) in t.seq.(i) <- t.seq.(j); t.seq.(j) <- tmp;
    let tmp = t.tag.(i) in t.tag.(i) <- t.tag.(j); t.tag.(j) <- tmp;
    let tmp = t.a.(i) in t.a.(i) <- t.a.(j); t.a.(j) <- tmp;
    let tmp = t.b.(i) in t.b.(i) <- t.b.(j); t.b.(j) <- tmp

  let[@lint.allow
       "A1: amortized geometric growth — allocates only when the heap \
        doubles, never in steady state"] ensure_capacity t =
    let cap = Array.length t.prio in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else 2 * cap in
      let extend arr =
        let narr = Array.make ncap 0 in
        Array.blit arr 0 narr 0 cap;
        narr
      in
      t.prio <- extend t.prio;
      t.seq <- extend t.seq;
      t.tag <- extend t.tag;
      t.a <- extend t.a;
      t.b <- extend t.b
    end

  (* Both sift loops are top-level tail-recursive functions rather than
     local closures or ref-index while-loops: the hot path ([@hot] below)
     must not allocate, and a capturing local function or a fresh [ref]
     per call would. *)
  let rec sift_up t i =
    if i > 0 && less t i ((i - 1) / 2) then begin
      let parent = (i - 1) / 2 in
      swap t i parent;
      sift_up t parent
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = if l < t.size && less t l i then l else i in
    let smallest = if r < t.size && less t r smallest then r else smallest in
    if smallest <> i then begin
      swap t i smallest;
      sift_down t smallest
    end

  (* [a]/[b] are mandatory (not optional with defaults) so that a full
     application never boxes them in [Some] at the call site. *)
  let[@hot] push t ~priority ~tag ~a ~b =
    ensure_capacity t;
    let i = t.size in
    t.prio.(i) <- priority;
    t.seq.(i) <- t.next_seq;
    t.tag.(i) <- tag;
    t.a.(i) <- a;
    t.b.(i) <- b;
    t.next_seq <- t.next_seq + 1;
    t.size <- t.size + 1;
    sift_up t i

  let[@hot] pop t =
    if t.size = 0 then false
    else begin
      t.cur_prio <- t.prio.(0);
      t.cur_tag <- t.tag.(0);
      t.cur_a <- t.a.(0);
      t.cur_b <- t.b.(0);
      t.size <- t.size - 1;
      if t.size > 0 then begin
        let last = t.size in
        t.prio.(0) <- t.prio.(last);
        t.seq.(0) <- t.seq.(last);
        t.tag.(0) <- t.tag.(last);
        t.a.(0) <- t.a.(last);
        t.b.(0) <- t.b.(last);
        sift_down t 0
      end;
      true
    end

  let cur_prio t = t.cur_prio
  let cur_tag t = t.cur_tag
  let cur_a t = t.cur_a
  let cur_b t = t.cur_b

  let clear t =
    t.size <- 0;
    t.next_seq <- 0
end
