(** Arithmetic in GF(2^16).

    Algorithm 1 sizes the chunk space as lcm(n1, n2) + parity, which can
    exceed the 256-symbol limit of a GF(2^8) Reed–Solomon code (e.g. a
    40-node group paired with a 39-node group). The paper hit the same
    wall with liberasurecode's 64-chunk cap and switched libraries; we
    instead provide a GF(2^16) code supporting up to 65535 total chunks.
    Elements are ints in [0, 65535].

    Slice multiplication uses per-coefficient split (nibble) product
    tables — the klauspost/reedsolomon technique scaled to 16-bit
    symbols — memoized per process and safe to share across
    domains. *)

val order : int
(** 65536. *)

val add : int -> int -> int
val mul : int -> int -> int
val div : int -> int -> int
val inv : int -> int

val exp : int -> int
(** [exp i] is the generator raised to [i], reduced with a Euclidean
    remainder so negative exponents (g^65535 = 1) are valid. *)

val log : int -> int

val mul_slice : int -> Bytes.t -> Bytes.t -> unit
(** Slice op over byte buffers interpreted as little-endian 16-bit
    symbols; lengths must be equal and even. XOR-accumulates into
    [dst]. Raises [Invalid_argument] if the coefficient is outside
    [0, 65535]. *)

val mul_slice_set : int -> Bytes.t -> Bytes.t -> unit
(** Like {!mul_slice} but overwrites [dst] instead of accumulating. *)

val mul_row : coeffs:int array -> Bytes.t array -> Bytes.t -> unit
(** [mul_row ~coeffs srcs dst] sets [dst] to the field linear
    combination [sum_j coeffs.(j) * srcs.(j)] — one fused encoding-row
    application, validating lengths/coefficients once and reusing the
    memoized per-coefficient tables. [dst] must not alias a source. *)
