(* Open addressing with linear probing over three parallel arrays. A
   slot's stamp, four bytes of [stamps], is 0 when the slot is empty,
   else the key's 30-bit [Hashtbl.hash] with bit 30 set. A probe
   compares key strings only on a full stamp match, and growth
   reinserts every binding from its stamp without reading or hashing
   its key. [Bytes] is not scanned by the GC, so the stamps cost four
   bytes a slot and no marking. No slot is ever vacated — the store has
   no delete — so probe chains need no tombstones, and a key moves only
   when the table grows. *)

type t = {
  mutable stamps : Bytes.t;
  mutable keys : string array;
  mutable vals : string array;
  mutable count : int;
  mutable last : int;
  init : string -> string option;
}

let initial_slots = 64 (* a power of two *)

let create ?(init = fun _ -> None) () =
  {
    stamps = Bytes.make (4 * initial_slots) '\000';
    keys = Array.make initial_slots "";
    vals = Array.make initial_slots "";
    count = 0;
    last = -1;
    init;
  }

(* Unchecked native-endian loads and stores: the stamps are never
   serialized, and every index is below the table's capacity. The
   int32 stays unboxed because it flows straight between primitives. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let stamp stamps i = Int32.to_int (get32 stamps (4 * i))
let set_stamp stamps i s = set32 stamps (4 * i) (Int32.of_int s)

(* [Hashtbl.hash] yields 30 bits, so a stamp is never 0 and its low
   bits pick the key's home slot up to 2^30 slots. *)
let stamp_of h = h lor 0x4000_0000

(* The slot holding [key], or the empty slot that ends its probe chain.
   A top-level loop rather than a local closure, which would be
   allocated on every call. *)
let rec probe stamps keys key s mask i =
  let c = stamp stamps i in
  if c = 0 || (c = s && String.equal (Array.unsafe_get keys i) key) then i
  else probe stamps keys key s mask ((i + 1) land mask)

let slot t key h =
  let mask = Array.length t.keys - 1 in
  probe t.stamps t.keys key (stamp_of h) mask (h land mask)

(* The first empty slot from [i]: growth places keys that are known to
   be distinct, so it never compares them. *)
let rec empty stamps mask i = if stamp stamps i = 0 then i else empty stamps mask ((i + 1) land mask)

let grow t =
  let n = 2 * Array.length t.keys in
  let mask = n - 1 in
  let stamps = Bytes.make (4 * n) '\000' in
  let keys = Array.make n "" and vals = Array.make n "" in
  for i = 0 to Array.length t.keys - 1 do
    let s = stamp t.stamps i in
    if s <> 0 then begin
      let j = empty stamps mask (s land mask) in
      set_stamp stamps j s;
      Array.unsafe_set keys j (Array.unsafe_get t.keys i);
      Array.unsafe_set vals j (Array.unsafe_get t.vals i)
    end
  done;
  t.stamps <- stamps;
  t.keys <- keys;
  t.vals <- vals

(* Binds [key] in empty slot [i] of its chain, doubling first if that
   would take the load past 7/8, and returns the slot it took. *)
let insert t i key h v =
  let i =
    if 8 * (t.count + 1) > 7 * Array.length t.keys then begin
      grow t;
      slot t key h
    end
    else i
  in
  set_stamp t.stamps i (stamp_of h);
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.vals i v;
  t.count <- t.count + 1;
  i

let get_hashed t key ~hash:h =
  let i = slot t key h in
  if stamp t.stamps i <> 0 then begin
    t.last <- i;
    Some (Array.unsafe_get t.vals i)
  end
  else
    match t.init key with
    | Some v as r ->
        (* Fault the default in so later fingerprints see it. *)
        t.last <- insert t i key h v;
        r
    | None ->
        t.last <- -1;
        None

let put_hashed t key ~hash:h value =
  let i = slot t key h in
  if stamp t.stamps i <> 0 then begin
    Array.unsafe_set t.vals i value;
    t.last <- i
  end
  else t.last <- insert t i key h value

let get t key = get_hashed t key ~hash:(Hashtbl.hash key)
let put t key value = put_hashed t key ~hash:(Hashtbl.hash key) value

let last_slot t = t.last
let capacity t = Array.length t.keys
let set_slot t i value = t.vals.(i) <- value

let size t = t.count

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    if stamp t.stamps i <> 0 then f (Array.unsafe_get t.keys i) (Array.unsafe_get t.vals i)
  done

let fingerprint t =
  (* XOR of per-binding hashes: order-insensitive, so the slot layout
     (which depends on insertion history) never shows. *)
  let acc = Bytes.make 32 '\x00' in
  iter
    (fun k v ->
      let h = Massbft_crypto.Sha256.digest (k ^ "\x00" ^ v) in
      for i = 0 to 31 do
        Bytes.set acc i
          (Char.chr (Char.code (Bytes.get acc i) lxor Char.code h.[i]))
      done)
    t;
  Massbft_crypto.Sha256.digest_bytes acc
