(** Deterministic pseudo-random number generation.

    The simulator must be reproducible bit-for-bit from a seed, so every
    randomized component (workload generators, network jitter, fault
    injection) draws from an explicit [Rng.t] rather than the global
    [Random] state. The generator is xoshiro256** seeded through
    splitmix64, the combination recommended by its authors.

    State layout: [t] is one 32-byte [Bytes] holding the four 64-bit
    state words s0..s3 little-endian at offsets 0, 8, 16 and 24, read
    and written with [Bytes.get_int64_le]/[set_int64_le] so the words
    stay unboxed and a draw allocates nothing ([float] still boxes its
    result). Every golden rests on this stream: test_util pins it draw
    for draw against a boxed-record oracle (test/rng_oracle.ml) and
    against known-answer vectors. *)

type t

val create : int64 -> t
(** [create seed] builds a generator from a 64-bit seed. Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each simulated node its own stream so that adding a
    node does not perturb the draws of the others. *)

val copy : t -> t
(** [copy t] duplicates the current state (the copies then evolve
    independently). *)

val next_int64 : t -> int64
(** Uniform over all 2^64 bit patterns. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from Exp(1/mean); used for Poisson
    arrival processes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val bytes : t -> int -> Bytes.t
(** [bytes t n] is [n] uniformly random bytes. *)
