(* The xoshiro256** generator as it stood before the state moved into
   one unboxed [Bytes]: a record of four [mutable int64] fields, which
   boxes a fresh int64 on every store. Kept as a test oracle only;
   test_util checks that Massbft_util.Rng draws exactly what this does,
   operation for operation. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64: expands a 64-bit seed into the four xoshiro words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  (* xoshiro must not start from the all-zero state. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
  else { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tt = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tt;
  t.s3 <- rotl t.s3 45;
  result

let split t = create (next_int64 t)
let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (next_int64 t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let int_in t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  if bound <= 0.0 then invalid_arg "Rng.float: bound must be positive";
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  (* 53 uniform mantissa bits in [0,1). *)
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L
