(* Deep fixture: H1 positive — an unchecked array read outside lib/util.
   Bounds discipline lives in lib/util; everywhere else indexes through
   the checked accessors. *)

let peek (a : int array) = Array.unsafe_get a 0
