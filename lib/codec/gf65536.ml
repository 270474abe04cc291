let order = 65536

(* x^16 + x^12 + x^3 + x + 1 (0x1100b), a standard primitive polynomial
   for GF(2^16); generator 2. *)
let poly = 0x1100b

let exp_table, log_table =
  let exp = Array.make 131072 0 in
  let log = Array.make 65536 0 in
  let x = ref 1 in
  for i = 0 to 65534 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := !x lsl 1;
    if !x land 0x10000 <> 0 then x := !x lxor poly
  done;
  for i = 65535 to 131071 do
    exp.(i) <- exp.(i - 65535)
  done;
  (exp, log)

let add a b = a lxor b

let mul a b =
  if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

let div a b =
  if b = 0 then raise Division_by_zero
  else if a = 0 then 0
  else exp_table.(log_table.(a) - log_table.(b) + 65535)

let inv a = div 1 a

let exp i =
  (* OCaml's [mod] keeps the dividend's sign, so a negative exponent —
     legitimate under g^65535 = 1 — must be lifted back into
     [0, 65535) or it would index out of bounds. *)
  let r = i mod 65535 in
  exp_table.(if r < 0 then r + 65535 else r)

let log a =
  if a = 0 then invalid_arg "Gf65536.log: log of zero" else log_table.(a)

let check_pair src dst op =
  let n = Bytes.length src in
  if Bytes.length dst <> n then invalid_arg (op ^ ": length mismatch");
  if n land 1 <> 0 then invalid_arg (op ^ ": odd byte length");
  n

(* A coefficient outside the field would index the table arrays out of
   bounds — with unsafe reads that is undefined behavior, not an
   exception — so every slice entry point validates it up front. A
   corrupted encoding row must fail loudly, never read wild memory. *)
let check_coeff op c =
  if c < 0 || c >= order then invalid_arg (op ^ ": coefficient out of field")

(* ------------------------------------------------------------------ *)
(* Split product tables (the klauspost/reedsolomon technique, scaled   *)
(* from 8- to 16-bit symbols)                                          *)
(* ------------------------------------------------------------------ *)

(* The field product is GF(2)-linear in each bit of the symbol, so
   splitting s into nibbles s = s0 + (s1<<4) + (s2<<8) + (s3<<12) gives

     c*s = c*s0 xor c*(s1<<4) xor c*(s2<<8) xor c*(s3<<12).

   Four 16-entry sub-tables per coefficient — 64 ints, a few hundred
   bytes, L1-resident — replace the two dependent lookups per symbol
   into the 1.5 MB log/exp tables, whose cache misses are what made the
   naive gf16 kernel ~100x slower per byte than gf8. Sub-table k lives
   at offset 16k, so a product is 4 lookups + 3 XORs.

   The 64 entries are packed as 16-bit values in a 128-byte Bytes —
   two cache lines — rather than an int array's 512: a decode matrix
   at 180 data shards cycles through tens of thousands of distinct
   coefficients, so the aggregate table footprint, not the per-lookup
   arithmetic, is what the inner loop waits on. Sub-table k lives at
   byte offset 32k, entry v at 32k + 2v; entries are written and read
   with the same native-endian primitive, so the packing is
   self-consistent on any host.

   Memoized per coefficient in [Atomic] cells exactly as
   [Gf256.mul_rows]: every shard of an encode reuses its matrix row's
   coefficients, so a table is built once per process, and a row built
   by one domain is published to the others with its contents
   visible. A racing duplicate build writes the same deterministic
   entries, so last-writer-wins is harmless. *)
let split_rows = Array.init order (fun _ -> Atomic.make Bytes.empty)

let split_table c =
  let cell = Array.unsafe_get split_rows c in
  let t = Atomic.get cell in
  if Bytes.length t <> 0 then t
  else begin
    let t = Bytes.make 128 '\x00' in
    for v = 1 to 15 do
      Word.set16 t (v lsl 1) (mul c v);
      Word.set16 t (32 lor (v lsl 1)) (mul c (v lsl 4));
      Word.set16 t (64 lor (v lsl 1)) (mul c (v lsl 8));
      Word.set16 t (96 lor (v lsl 1)) (mul c (v lsl 12))
    done;
    Atomic.set cell t;
    t
  end

(* [prod t s]: c*s via the split table of c. [s] must be in [0, 65535],
   which every load below guarantees; the index arithmetic folds the
   entry-doubling shift into the nibble masks ((s lsr (4k-1)) land 0x1e
   is twice nibble k). *)
let[@inline] prod t s =
  Word.get16 t ((s lsl 1) land 0x1e)
  lxor Word.get16 t (32 lor ((s lsr 3) land 0x1e))
  lxor Word.get16 t (64 lor ((s lsr 7) land 0x1e))
  lxor Word.get16 t (96 lor ((s lsr 11) land 0x1e))

(* dst <- dst lxor src, 64 bits at a time: in GF(2^16), multiplying by
   1 is the identity, so the accumulate collapses to a plain XOR
   regardless of symbol width (and of endianness). The explicit range
   check up front is what licenses the unsafe int64 loads in the word
   loop and the unsafe byte ops in the tail. *)
let xor_into src dst n =
  Word.check_range ~op:"Gf65536.xor_into" src n;
  Word.check_range ~op:"Gf65536.xor_into" dst n;
  let words = n lsr 3 in
  for w = 0 to words - 1 do
    let o = w lsl 3 in
    Word.set64 dst o (Int64.logxor (Word.get64 dst o) (Word.get64 src o))
  done;
  for i = words lsl 3 to n - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get src i)
         lxor Char.code (Bytes.unsafe_get dst i)))
  done

(* The unchecked kernels require: [n] even, [n] within both buffers
   (established once by the caller), [t] a split table. The symbol wire
   format is little-endian, so on the overwhelmingly common LE hosts
   the native-endian word primitives read symbols directly and the
   kernels run branch-free, four symbols — 64 bits of slice — per
   unrolled iteration; big-endian hosts take a byte-composing scalar
   variant selected once at module init. *)

(* [prod64 t w]: the four products of the four LE symbol lanes of [w],
   as an int64. The three low lanes pack into one tagged int (48 bits,
   within OCaml's 63); only the top lane needs 64-bit repacking. The
   int64 temporaries flow straight between the word primitives and the
   arithmetic, so cmmgen keeps them unboxed (same property the xor word
   loop relies on). *)
let[@inline] prod64 t w =
  let s0 = Int64.to_int w land 0xffff in
  let s1 = Int64.to_int (Int64.shift_right_logical w 16) land 0xffff in
  let s2 = Int64.to_int (Int64.shift_right_logical w 32) land 0xffff in
  let s3 = Int64.to_int (Int64.shift_right_logical w 48) land 0xffff in
  let lo = prod t s0 lor (prod t s1 lsl 16) lor (prod t s2 lsl 32) in
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int (prod t s3)) 48)

let acc_slice_le t src dst n =
  let quads = n lsr 3 in
  for q = 0 to quads - 1 do
    let o = q lsl 3 in
    Word.set64 dst o
      (Int64.logxor (Word.get64 dst o) (prod64 t (Word.get64 src o)))
  done;
  let i = ref (quads lsl 3) in
  while !i < n do
    Word.set16 dst !i (Word.get16 dst !i lxor prod t (Word.get16 src !i));
    i := !i + 2
  done

let set_slice_le t src dst n =
  let quads = n lsr 3 in
  for q = 0 to quads - 1 do
    let o = q lsl 3 in
    Word.set64 dst o (prod64 t (Word.get64 src o))
  done;
  let i = ref (quads lsl 3) in
  while !i < n do
    Word.set16 dst !i (prod t (Word.get16 src !i));
    i := !i + 2
  done

(* Byte-composing little-endian symbol access for the big-endian
   fallback; unsafe but dominated by the caller's range check. *)
let get16_le b i =
  Char.code (Bytes.unsafe_get b i)
  lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 8)

let set16_le b i v =
  Bytes.unsafe_set b i (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (i + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

let acc_slice_be t src dst n =
  let i = ref 0 in
  while !i < n do
    set16_le dst !i (get16_le dst !i lxor prod t (get16_le src !i));
    i := !i + 2
  done

let set_slice_be t src dst n =
  let i = ref 0 in
  while !i < n do
    set16_le dst !i (prod t (get16_le src !i));
    i := !i + 2
  done

let acc_slice = if Word.be then acc_slice_be else acc_slice_le
let set_slice = if Word.be then set_slice_be else set_slice_le

let mul_slice c src dst =
  let n = check_pair src dst "Gf65536.mul_slice" in
  check_coeff "Gf65536.mul_slice" c;
  if c = 1 then xor_into src dst n
  else if c <> 0 then acc_slice (split_table c) src dst n

let mul_slice_set c src dst =
  let n = check_pair src dst "Gf65536.mul_slice_set" in
  check_coeff "Gf65536.mul_slice_set" c;
  if c = 0 then Bytes.fill dst 0 n '\x00'
  else if c = 1 then Bytes.blit src 0 dst 0 n
  else set_slice (split_table c) src dst n

(* Row-fused matrix-row application: dst <- sum_j coeffs.(j)*srcs.(j),
   validating lengths and coefficients once and resolving each memoized
   split table once, so the per-source inner loops are pure kernels.
   The first non-zero term writes dst outright (no zero-fill, no read
   pass) and the rest accumulate in place; an all-zero row yields a
   zero slice. dst must not alias a source (Reed_solomon never does). *)
let mul_row ~coeffs srcs dst =
  let k = Array.length coeffs in
  if Array.length srcs <> k then
    invalid_arg "Gf65536.mul_row: coeffs/srcs arity mismatch";
  let n = Bytes.length dst in
  if n land 1 <> 0 then invalid_arg "Gf65536.mul_row: odd byte length";
  Array.iter
    (fun s ->
      if Bytes.length s <> n then invalid_arg "Gf65536.mul_row: length mismatch")
    srcs;
  Array.iter (fun c -> check_coeff "Gf65536.mul_row" c) coeffs;
  let j0 = ref 0 in
  while !j0 < k && Array.unsafe_get coeffs !j0 = 0 do
    incr j0
  done;
  if !j0 = k then Bytes.fill dst 0 n '\x00'
  else begin
    let c0 = Array.unsafe_get coeffs !j0 in
    (if c0 = 1 then Bytes.blit (Array.unsafe_get srcs !j0) 0 dst 0 n
     else set_slice (split_table c0) (Array.unsafe_get srcs !j0) dst n);
    for j = !j0 + 1 to k - 1 do
      let c = Array.unsafe_get coeffs j in
      if c = 1 then xor_into (Array.unsafe_get srcs j) dst n
      else if c <> 0 then
        acc_slice (split_table c) (Array.unsafe_get srcs j) dst n
    done
  end
