(* Deep fixture: A2 positive — a [@hot] path that resolves a name
   through a string-keyed table hashes it on every call. [Hashtbl.find]
   with a handler boxes nothing, so A1 stays quiet; the lookup is the
   finding, one call below the root. *)

let slot (ids : (string, int) Hashtbl.t) name =
  try Hashtbl.find ids name with Not_found -> -1

let[@hot] value (ids : (string, int) Hashtbl.t) (values : int array) name =
  let i = slot ids name in
  if i < 0 then 0 else values.(i)
