(** SHA-256 (FIPS 180-4), implemented from the specification. The paper
    uses SHA-256 for data integrity (chunk hashes, Merkle trees, entry
    digests); no crypto library ships with this container, so the
    primitive is built here and validated against the NIST test
    vectors in the test suite. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx

val reset : ctx -> unit
(** Returns the context to its initial state, ready to hash a new
    message. Callers on hot paths keep one context and [reset] it
    between messages instead of allocating with {!init}. *)

val update : ctx -> string -> unit
val update_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit

val finalize : ctx -> string
(** Returns the 32-byte digest. After finalization the context holds no
    pending input; call {!reset} before hashing the next message. *)

val digest : string -> string
(** One-shot hash of a string; 32 raw bytes. *)

val digest_bytes : Bytes.t -> string

val hex : string -> string
(** [hex s] is the lowercase hex digest of [s] — convenience for tests
    and logging. *)

val block_size : int
(** 64; exposed for HMAC. *)
