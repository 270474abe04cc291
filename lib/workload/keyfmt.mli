(** One-allocation keys and values: string pieces interleaved with
    decimal ints, printed straight into one exactly sized buffer.

    [cat2 a i b j c] is [a ^ string_of_int i ^ b ^ string_of_int j ^ c],
    byte for byte, negative ints and [min_int] included, but it
    allocates only the result. The workloads mint a key or a value per
    generated transaction or executed operation; concatenation would
    allocate every intermediate string, and [string_of_int] goes
    through the C format interpreter. *)

val int : int -> string
(** [int n] is [string_of_int n]. *)

val cat1 : string -> int -> string -> string
val cat2 : string -> int -> string -> int -> string -> string

val cat3 :
  string -> int -> string -> int -> string -> int -> string -> string

val cat4 :
  string -> int -> string -> int -> string -> int -> string -> int -> string ->
  string

val starts_with : prefix:string -> string -> bool
val ends_with : suffix:string -> string -> bool
(** [String.starts_with] and [String.ends_with], without their
    allocation: the store initializers test every key they fault in. *)
