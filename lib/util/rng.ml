(* xoshiro256**'s s0..s3, little-endian at offsets 0, 8, 16, 24 (see
   rng.mli): [mutable int64] record fields would box on every store. *)
type t = Bytes.t

(* splitmix64: expands a 64-bit seed into the four xoshiro words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  t

let create seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  (* xoshiro must not start from the all-zero state. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next_int64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  Bytes.set_int64_le t 0 (logxor s0 s3);
  Bytes.set_int64_le t 8 (logxor s1 s2);
  Bytes.set_int64_le t 16 (logxor s2 (shift_left s1 17));
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let split t = create (next_int64 t)
let copy = Bytes.copy

(* Rejection sampling on the top bits to avoid modulo bias. The bound
   travels as an [int] and is widened inside: an [int64] argument would
   be boxed on every call. *)
let rec draw t bound =
  let bound64 = Int64.of_int bound in
  let r = Int64.shift_right_logical (next_int64 t) 1 in
  let v = Int64.rem r bound64 in
  if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then draw t bound
  else Int64.to_int v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t bound

let int_in t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  if bound <= 0.0 then invalid_arg "Rng.float: bound must be positive";
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  (* 53 uniform mantissa bits in [0,1). *)
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = float t 1.0 in
  (* 1 - u is in (0, 1], keeping log finite. *)
  -.mean *. log (1.0 -. u)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let bytes t n =
  if n < 0 then invalid_arg "Rng.bytes: negative length";
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int t 256))
  done;
  b
