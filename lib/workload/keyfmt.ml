(* Digits are produced from the non-positive side: every int has a
   non-positive counterpart (min_int has no positive one), and on
   m <= 0 OCaml's truncating [/] and [mod] give [m mod 10] in [-9, 0].
   So one loop prints every int, exactly as ["%d"] does. *)

(* Printed width of [n], sign included. *)
let width n =
  let rec go m w = if m > -10 then w else go (m / 10) (w + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* Writes the digits of [-m] (m <= 0) right to left, the last at [last]. *)
let rec digits b last m =
  Bytes.unsafe_set b last (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then digits b (last - 1) (m / 10)

(* Writes [n] at [pos] in [w] bytes; returns the position after it. *)
let put_int b pos n w =
  if n < 0 then begin
    Bytes.unsafe_set b pos '-';
    digits b (pos + w - 1) n
  end
  else digits b (pos + w - 1) (-n);
  pos + w

let put_str b pos s =
  let l = String.length s in
  Bytes.unsafe_blit_string s 0 b pos l;
  pos + l

let int n =
  let w = width n in
  let b = Bytes.create w in
  ignore (put_int b 0 n w);
  Bytes.unsafe_to_string b

let cat1 a i b =
  let wi = width i in
  let buf = Bytes.create (String.length a + wi + String.length b) in
  let p = put_str buf 0 a in
  let p = put_int buf p i wi in
  ignore (put_str buf p b);
  Bytes.unsafe_to_string buf

let cat2 a i b j c =
  let wi = width i and wj = width j in
  let buf =
    Bytes.create (String.length a + wi + String.length b + wj + String.length c)
  in
  let p = put_str buf 0 a in
  let p = put_int buf p i wi in
  let p = put_str buf p b in
  let p = put_int buf p j wj in
  ignore (put_str buf p c);
  Bytes.unsafe_to_string buf

let cat3 a i b j c k d =
  let wi = width i and wj = width j and wk = width k in
  let buf =
    Bytes.create
      (String.length a + wi + String.length b + wj + String.length c + wk
     + String.length d)
  in
  let p = put_str buf 0 a in
  let p = put_int buf p i wi in
  let p = put_str buf p b in
  let p = put_int buf p j wj in
  let p = put_str buf p c in
  let p = put_int buf p k wk in
  ignore (put_str buf p d);
  Bytes.unsafe_to_string buf

let cat4 a i b j c k d l e =
  let wi = width i and wj = width j and wk = width k and wl = width l in
  let buf =
    Bytes.create
      (String.length a + wi + String.length b + wj + String.length c + wk
     + String.length d + wl + String.length e)
  in
  let p = put_str buf 0 a in
  let p = put_int buf p i wi in
  let p = put_str buf p b in
  let p = put_int buf p j wj in
  let p = put_str buf p c in
  let p = put_int buf p k wk in
  let p = put_str buf p d in
  let p = put_int buf p l wl in
  ignore (put_str buf p e);
  Bytes.unsafe_to_string buf

(* Key tests for the preload initializers, which run once per faulted
   key. [String.starts_with] and [ends_with] allocate a closure per call
   in OCaml 5.1; these compare in a top-level loop and allocate
   nothing. *)
let rec same_from s off p i =
  i = String.length p
  || Char.equal (String.unsafe_get s (off + i)) (String.unsafe_get p i)
     && same_from s off p (i + 1)

let starts_with ~prefix s =
  String.length s >= String.length prefix && same_from s 0 prefix 0

let ends_with ~suffix s =
  let off = String.length s - String.length suffix in
  off >= 0 && same_from s off suffix 0
