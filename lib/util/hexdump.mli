(** Hex encoding of byte strings, for digests in logs, tests and golden
    vectors. *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of [s]. *)

val decode : string -> string
(** [decode hex] inverts {!encode}. Raises [Invalid_argument] on odd
    length or non-hex characters. *)

val short : ?len:int -> string -> string
(** [short digest] is a truncated hex prefix (default 8 hex chars) for
    human-readable identifiers. *)
