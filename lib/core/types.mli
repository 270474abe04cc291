(** Shared identifiers and wire-size constants for the MassBFT core. *)

type entry_id = { gid : int; seq : int }
(** The entry proposed by group [gid] with local sequence number [seq]
    (1-based) — e_{i,m} in the paper. *)

val entry_id_to_string : entry_id -> string
val entry_id_equal : entry_id -> entry_id -> bool

module Entry_map : Map.S with type key = entry_id
module Entry_tbl : Hashtbl.S with type key = entry_id

(** Wire-size constants (bytes), matching the implementation section of
    the paper: ED25519 signatures (64 B), SHA-256 digests (32 B), and
    small fixed message headers. *)

val signature_bytes : int
val digest_bytes : int
val header_bytes : int

val certificate_bytes : n:int -> int
(** A PBFT certificate carries 2f+1 signatures plus signer ids. *)

val vote_bytes : int
(** A prepare/commit/accept vote: digest + signature + header. *)

val raft_meta_bytes : n:int -> int
(** An [Append] carrying an entry digest + certificate + indices (the
    lightweight consensus message of MassBFT's propose phase). *)
