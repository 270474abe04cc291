type t = {
  n : int;
  alpha : float;
  zetan : float;
  eta : float;
  half_pow_theta : float;  (* 0.5 ** theta, fixed at [create] *)
}

(* zeta(n, theta) = sum_{i=1..n} 1/i^theta. O(n) once at construction. *)
let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta < 0.0 || theta >= 1.0 then
    invalid_arg "Zipf.create: theta must be in [0, 1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; alpha; zetan; eta; half_pow_theta = Float.pow 0.5 theta }

let next t rng =
  let u = Rng.float rng 1.0 in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. t.half_pow_theta then 1
  else
    let v =
      float_of_int t.n
      *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
    in
    let k = int_of_float v in
    if k >= t.n then t.n - 1 else if k < 0 then 0 else k

(* Fibonacci-style multiplicative scatter; stays within [0, n). *)
let scramble ~hash_seed ~n rank =
  let h =
    Int64.mul
      (Int64.add (Int64.of_int rank) hash_seed)
      0x9E3779B97F4A7C15L
  in
  let h = Int64.logxor h (Int64.shift_right_logical h 29) in
  (* Mask to 62 bits so the Int64 -> int conversion stays non-negative. *)
  let positive = Int64.to_int (Int64.logand h 0x3FFFFFFFFFFFFFFFL) in
  positive mod n

let scrambled t rng ~hash_seed = scramble ~hash_seed ~n:t.n (next t rng)
let n t = t.n
