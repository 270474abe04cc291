(* Open addressing with linear probing over three parallel arrays. A
   slot's tag byte is 0 when empty, else 0x80 lor seven hash bits taken
   above the index bits, so a probe compares key strings only on a tag
   match (about one slot in 128 of the non-matching ones). No slot is
   ever vacated — the store has no delete — so probe chains need no
   tombstones. The full hash is not kept per slot: growth rehashes the
   keys instead, which keeps the per-binding footprint at two words and
   a byte. *)

type t = {
  mutable tags : Bytes.t;
  mutable keys : string array;
  mutable vals : string array;
  mutable count : int;
  init : string -> string option;
}

let initial_slots = 64 (* a power of two *)

let create ?(init = fun _ -> None) () =
  {
    tags = Bytes.make initial_slots '\000';
    keys = Array.make initial_slots "";
    vals = Array.make initial_slots "";
    count = 0;
    init;
  }

(* [Hashtbl.hash] yields 30 bits; the tag takes the top seven, disjoint
   from the index bits up to 2^23 slots. *)
let tag_of h = Char.unsafe_chr (0x80 lor (h lsr 23))

(* The slot holding [key], or the empty slot that ends its probe chain.
   A top-level loop rather than a local closure, which would be
   allocated on every call. *)
let rec probe tags keys key tag mask i =
  let c = Bytes.unsafe_get tags i in
  if c = '\000' || (c = tag && String.equal (Array.unsafe_get keys i) key) then i
  else probe tags keys key tag mask ((i + 1) land mask)

let slot tags keys key h =
  let mask = Bytes.length tags - 1 in
  probe tags keys key (tag_of h) mask (h land mask)

let grow t =
  let n = 2 * Bytes.length t.tags in
  let tags = Bytes.make n '\000' in
  let keys = Array.make n "" and vals = Array.make n "" in
  Bytes.iteri
    (fun i c ->
      if c <> '\000' then begin
        let k = Array.unsafe_get t.keys i in
        let j = slot tags keys k (Hashtbl.hash k) in
        Bytes.unsafe_set tags j c;
        Array.unsafe_set keys j k;
        Array.unsafe_set vals j (Array.unsafe_get t.vals i)
      end)
    t.tags;
  t.tags <- tags;
  t.keys <- keys;
  t.vals <- vals

(* Binds [key] in empty slot [i] of its chain, doubling first if that
   would take the load past 7/8. *)
let insert t i key h v =
  let i =
    if 8 * (t.count + 1) > 7 * Bytes.length t.tags then begin
      grow t;
      slot t.tags t.keys key h
    end
    else i
  in
  Bytes.unsafe_set t.tags i (tag_of h);
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.vals i v;
  t.count <- t.count + 1

let get_hashed t key ~hash:h =
  let i = slot t.tags t.keys key h in
  if Bytes.unsafe_get t.tags i <> '\000' then Some (Array.unsafe_get t.vals i)
  else
    match t.init key with
    | Some v as r ->
        (* Fault the default in so later fingerprints see it. *)
        insert t i key h v;
        r
    | None -> None

let put_hashed t key ~hash:h value =
  let i = slot t.tags t.keys key h in
  if Bytes.unsafe_get t.tags i <> '\000' then Array.unsafe_set t.vals i value
  else insert t i key h value

let get t key = get_hashed t key ~hash:(Hashtbl.hash key)
let put t key value = put_hashed t key ~hash:(Hashtbl.hash key) value

let size t = t.count

let iter f t =
  Bytes.iteri
    (fun i c -> if c <> '\000' then f (Array.unsafe_get t.keys i) (Array.unsafe_get t.vals i))
    t.tags

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
