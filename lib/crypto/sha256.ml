(* FIPS 180-4 SHA-256 over 32-bit words. OCaml's native int is 63-bit
   here, so word arithmetic masks to 32 bits explicitly. *)

let digest_size = 32
let block_size = 64

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int; (* bytes hashed so far *)
  w : int array; (* message schedule scratch *)
}

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
    0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
  |]

let init () =
  {
    h = Array.copy iv;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

let mask = 0xffffffff
let ( &. ) a b = a land b
let ( |. ) a b = a lor b
let ( ^. ) a b = a lxor b
let ( +. ) a b = (a + b) land mask
let rotr x n = ((x lsr n) |. (x lsl (32 - n))) land mask
let shr x n = x lsr n

let compress ctx block pos =
  let w = ctx.w in
  for i = 0 to 15 do
    let o = pos + (4 * i) in
    w.(i) <-
      (Char.code (Bytes.get block o) lsl 24)
      lor (Char.code (Bytes.get block (o + 1)) lsl 16)
      lor (Char.code (Bytes.get block (o + 2)) lsl 8)
      lor Char.code (Bytes.get block (o + 3))
  done;
  for i = 16 to 63 do
    let s0 =
      rotr w.(i - 15) 7 ^. rotr w.(i - 15) 18 ^. shr w.(i - 15) 3
    in
    let s1 =
      rotr w.(i - 2) 17 ^. rotr w.(i - 2) 19 ^. shr w.(i - 2) 10
    in
    w.(i) <- w.(i - 16) +. s0 +. w.(i - 7) +. s1
  done;
  let a = ref ctx.h.(0)
  and b = ref ctx.h.(1)
  and c = ref ctx.h.(2)
  and d = ref ctx.h.(3)
  and e = ref ctx.h.(4)
  and f = ref ctx.h.(5)
  and g = ref ctx.h.(6)
  and hh = ref ctx.h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 ^. rotr !e 11 ^. rotr !e 25 in
    let ch = (!e &. !f) ^. (lnot !e &. !g) in
    let temp1 = !hh +. s1 +. ch +. k.(i) +. w.(i) in
    let s0 = rotr !a 2 ^. rotr !a 13 ^. rotr !a 22 in
    let maj = (!a &. !b) ^. (!a &. !c) ^. (!b &. !c) in
    let temp2 = s0 +. maj in
    hh := !g;
    g := !f;
    f := !e;
    e := !d +. temp1;
    d := !c;
    c := !b;
    b := !a;
    a := temp1 +. temp2
  done;
  ctx.h.(0) <- ctx.h.(0) +. !a;
  ctx.h.(1) <- ctx.h.(1) +. !b;
  ctx.h.(2) <- ctx.h.(2) +. !c;
  ctx.h.(3) <- ctx.h.(3) +. !d;
  ctx.h.(4) <- ctx.h.(4) +. !e;
  ctx.h.(5) <- ctx.h.(5) +. !f;
  ctx.h.(6) <- ctx.h.(6) +. !g;
  ctx.h.(7) <- ctx.h.(7) +. !hh

let update_bytes ctx data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Sha256.update_bytes: range out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !len (block_size - ctx.buf_len) in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    len := !len - take;
    if ctx.buf_len = block_size then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !len >= block_size do
    compress ctx data !pos;
    pos := !pos + block_size;
    len := !len - block_size
  done;
  if !len > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

let update ctx s =
  update_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize ctx =
  let bit_len = ctx.total * 8 in
  (* Pad in the context's own block buffer — 0x80, zeros, then the
     64-bit big-endian bit length — so finalization allocates nothing
     beyond the returned digest. [buf_len] is always < 64 here. *)
  let buf = ctx.buf in
  let n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n + 1 + 8 > block_size then begin
    (* No room for the length: close this block and pad a fresh one. *)
    Bytes.fill buf (n + 1) (block_size - n - 1) '\x00';
    compress ctx buf 0;
    Bytes.fill buf 0 (block_size - 8) '\x00'
  end
  else Bytes.fill buf (n + 1) (block_size - 8 - (n + 1)) '\x00';
  for i = 0 to 7 do
    Bytes.set buf
      (block_size - 8 + i)
      (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create digest_size in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

(* One-shot digests reuse a scratch context: the replication verify
   path hashes every chunk of every entry, and a fresh context per call
   (8-word state + 64-byte block + 64-word schedule) was the dominant
   allocation there. The scratch is domain-local, not global — a caller
   hashing from several domains at once through a shared context would
   silently interleave their block streams into wrong digests. [digest]
   never re-enters itself within a domain, so per-domain reuse is
   safe. *)
let scratch = Domain.DLS.new_key init

let digest s =
  let c = Domain.DLS.get scratch in
  reset c;
  update c s;
  finalize c

let digest_bytes b =
  let c = Domain.DLS.get scratch in
  reset c;
  update_bytes c b ~pos:0 ~len:(Bytes.length b);
  finalize c

let hex s = Massbft_util.Hexdump.encode (digest s)
