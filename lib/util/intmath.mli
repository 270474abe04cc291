(** Small integer helpers used throughout the protocol (chunk counts,
    quorum sizes, transfer plans). All functions operate on non-negative
    native ints and raise [Invalid_argument] on bad input. *)

val gcd : int -> int -> int
(** [gcd a b] is the greatest common divisor of [a] and [b].
    [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
(** [lcm a b] is the least common multiple, as used by Algorithm 1 of the
    paper to size the chunk space between two groups. [lcm 0 _ = 0]. *)

val cdiv : int -> int -> int
(** [cdiv a b] is [a / b] rounded towards positive infinity. *)

val pbft_f : int -> int
(** [pbft_f n] is the number of Byzantine nodes an [n]-node PBFT group
    tolerates: [(n - 1) / 3] (Algorithm 1, line 4). *)

val pbft_quorum : int -> int
(** [pbft_quorum n] is the certificate quorum [2f + 1] for an [n]-node
    group. *)

val raft_f : int -> int
(** [raft_f ng] is the number of crashed groups tolerated by the global
    Raft layer: [(ng - 1) / 2]. *)

val raft_quorum : int -> int
(** [raft_quorum ng] is the global majority quorum [f_g + 1]. *)

val log2_ceil : int -> int
(** [log2_ceil n] is the smallest [k] with [2^k >= n] ([n >= 1]). Used to
    size Merkle trees. *)
