(* Fires exactly L3: a scheduler granting a lock itself instead of going
   through the engine core's one request path. *)
let grant_directly locks id mode e =
  Prb_lock.Lock_table.request locks id mode e
