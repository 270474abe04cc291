(** YCSB key-value workload (Cooper et al.), as configured in the
    paper's evaluation: one table of 1,000,000 rows with 10 columns of
    100 bytes, Zipfian access with skew 0.99, and the two standard
    mixes A (50/50 read/update) and B (95/5). *)

type mix = A | B

type config = {
  rows : int;  (** table size; the paper uses 1,000,000 *)
  columns : int;  (** 10 *)
  value_size : int;  (** bytes per column; 100 *)
  theta : float;  (** Zipf skew; 0.99 *)
  mix : mix;
}

val default : mix -> config

val avg_wire_size : config -> int
(** The per-transaction wire size, matching the paper's reported
    averages: 201 B for YCSB-A, 150 B for YCSB-B. *)

type t

val create : config -> seed:int64 -> t

val create_streams : config -> seeds:int64 array -> t array
(** One generator per seed, each the one [create] would return, sharing
    one Zipf table: building it sums over every row. *)

val next : t -> Txn.t
(** Draws the next transaction: a read or an update of one cell of a
    Zipf-popular row. *)

val set_shard : t -> index:int -> count:int -> unit
(** Restrict subsequent draws to shard [index] of [count] contiguous
    row ranges (deterministic resharding after a group add/remove). The
    RNG stream is consumed exactly as without a shard. *)

val key : row:int -> col:int -> string
(** The key encoding, exposed so stores can be preloaded. *)
