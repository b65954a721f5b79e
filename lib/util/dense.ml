(* Dense int-indexed building blocks for the flat hot paths (DESIGN.md
   Section 12): an int-payload priority queue whose steady-state push/pop
   allocates nothing. It is deterministic: behaviour depends only on the
   call sequence, never on hashing or allocation addresses. *)

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
