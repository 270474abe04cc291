let rec gcd a b =
  if a < 0 || b < 0 then invalid_arg "Intmath.gcd: negative argument";
  if b = 0 then a else gcd b (a mod b)

let lcm a b =
  if a < 0 || b < 0 then invalid_arg "Intmath.lcm: negative argument";
  if a = 0 || b = 0 then 0 else a / gcd a b * b

let cdiv a b =
  if b <= 0 then invalid_arg "Intmath.cdiv: non-positive divisor";
  if a < 0 then invalid_arg "Intmath.cdiv: negative dividend";
  (a + b - 1) / b

let pbft_f n =
  if n < 1 then invalid_arg "Intmath.pbft_f: group must be non-empty";
  (n - 1) / 3

let pbft_quorum n = (2 * pbft_f n) + 1

let raft_f ng =
  if ng < 1 then invalid_arg "Intmath.raft_f: need at least one group";
  (ng - 1) / 2

let raft_quorum ng = raft_f ng + 1

let log2_ceil n =
  if n < 1 then invalid_arg "Intmath.log2_ceil: need n >= 1";
  let rec go k p = if p >= n then k else go (k + 1) (p * 2) in
  go 0 1
