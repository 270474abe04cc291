type ctx = {
  read : string -> string option;
  write : string -> string -> unit;
  abort : unit -> unit;
}

type t = { id : int; label : string; wire_size : int; body : ctx -> unit }

exception Logic_abort

let make ~id ~label ~wire_size body =
  if wire_size < 0 then invalid_arg "Txn.make: negative wire size";
  { id; label; wire_size; body }

let int_value s = match int_of_string s with v -> v | exception Failure _ -> 0
let of_int = Keyfmt.int
