(* Hash tables keyed by int with the identity hash: consecutive keys
   (sequence numbers, log indices) land in consecutive buckets, and a
   lookup costs no call into the polymorphic [caml_hash] or
   [caml_compare]. *)

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (i : int) = i
end)
