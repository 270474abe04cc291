(** Systematic Reed–Solomon erasure coding over a pluggable field.

    A code with [data] source shards and [parity] redundancy shards can
    reconstruct the sources from any [data] of the [data + parity]
    shards (paper §IV-B). The encoding matrix is built as in
    klauspost/reedsolomon: a Vandermonde matrix whose top square is
    normalized to the identity, making the code systematic (data shards
    pass through unchanged).

    Reconstruction requires every supplied shard to be genuine; feeding
    corrupted or misindexed shards yields a wrong result, which is
    exactly why MassBFT layers Merkle-root bucket classification and
    certificate validation on top ({!Massbft.Rebuild}). *)

val check_counts : data:int -> parity:int -> unit
(** Raises [Invalid_argument] unless [data >= 1] and [parity >= 0]: the
    checks {!Make.create} makes before the field's bound. *)

val shard_size : data:int -> symbol_bytes:int -> int -> int
(** [shard_size ~data ~symbol_bytes len] is what {!Make.shard_size_for}
    returns for a [data]-shard codec over a field of [symbol_bytes]-byte
    symbols, computed without one. Raises [Invalid_argument] if [len]
    is negative. *)

module Make (F : Field.S) : sig
  type t

  val create : data:int -> parity:int -> t
  (** Raises [Invalid_argument] unless [data >= 1], [parity >= 0] and
      [data + parity <= F.order - 1]. *)

  val data : t -> int
  val parity : t -> int
  val total : t -> int

  val shard_size_for : t -> int -> int
  (** [shard_size_for t len] is the per-shard byte size used when
      encoding a [len]-byte message: ceil(len / data) rounded up to the
      field's symbol width. *)

  val encode : t -> Bytes.t array -> Bytes.t array
  (** [encode t shards] takes exactly [data] equal-length shards (length
      a multiple of the symbol width) and returns the [parity] parity
      shards. *)

  val reconstruct : t -> Bytes.t option array -> (Bytes.t array, string) result
  (** [reconstruct t shards] takes [total] slots, of which at least
      [data] are [Some], and returns all [data] source shards in order.
      Errors if too few shards are present or sizes are inconsistent. *)

  val encoding_row : t -> int -> int array
  (** Row [i] of the encoding matrix (for tests): rows [0, data) are the
      identity, rows [data, total) the parity combinations. *)
end
