(** Uniform front-end over the three benchmark workloads, as consumed by
    the protocol engine and the experiment harness. *)

type kind = Ycsb_a | Ycsb_b | Smallbank | Tpcc

val kind_name : kind -> string
(** "YCSB-A", "YCSB-B", "SmallBank", "TPC-C" — the paper's labels. *)

val all_kinds : kind list

val avg_wire_size : kind -> int
(** Paper Table: 201 / 150 / 108 / 232 bytes. *)

type t

val create : ?scale:float -> kind -> seed:int64 -> t
(** A transaction stream. [scale] (default 1.0) shrinks the keyspace for
    fast tests — e.g. 0.001 turns YCSB's 1 M rows into 1 k. *)

val create_streams : ?scale:float -> kind -> seeds:int64 array -> t array
(** [create ?scale kind ~seed] for each seed, with the read-only tables
    built once and shared: the YCSB streams of one engine share one
    Zipf table instead of summing over every row each. *)

val next : t -> Txn.t
val kind : t -> kind

val set_shard : t -> index:int -> count:int -> unit
(** Restrict this stream to shard [index] of [count] contiguous key
    ranges — the deterministic reshard applied to every group's
    generator when a group joins or leaves (rows for YCSB, accounts for
    SmallBank, warehouses for TPC-C). RNG consumption is unchanged, so
    a run without a reconfiguration is byte-identical. *)

val preload : ?scale:float -> kind -> string -> string option
(** The store initializer matching [create] with the same [scale]. *)
