module Sha256 = Massbft_crypto.Sha256
module Keyfmt = Massbft_workload.Keyfmt

type block = {
  height : int;
  gid : int;
  seq : int;
  txn_count : int;
  payload_digest : string;
  prev_hash : string;
  block_hash : string;
}

type t = { mutable rev_blocks : block list; mutable len : int }

let genesis_hash = Sha256.digest "massbft-genesis"

let create () = { rev_blocks = []; len = 0 }

(* The preimage is "blk|height|gid|seq|txn_count|payload_digest|prev_hash"
   (ints in decimal), built without the format interpreter: the ints
   through [Keyfmt], the digests blitted behind them. *)
let hash_block ~height ~gid ~seq ~txn_count ~payload_digest ~prev_hash =
  let head = Keyfmt.cat4 "blk|" height "|" gid "|" seq "|" txn_count "|" in
  let hl = String.length head and pl = String.length payload_digest in
  let b = Bytes.create (hl + pl + 1 + String.length prev_hash) in
  Bytes.blit_string head 0 b 0 hl;
  Bytes.blit_string payload_digest 0 b hl pl;
  Bytes.set b (hl + pl) '|';
  Bytes.blit_string prev_hash 0 b (hl + pl + 1) (String.length prev_hash);
  Sha256.digest_bytes b

let head_hash t =
  match t.rev_blocks with [] -> genesis_hash | b :: _ -> b.block_hash

let append t ~gid ~seq ~txn_count ~payload_digest =
  let height = t.len in
  let prev_hash = head_hash t in
  let block_hash =
    hash_block ~height ~gid ~seq ~txn_count ~payload_digest ~prev_hash
  in
  let b = { height; gid; seq; txn_count; payload_digest; prev_hash; block_hash } in
  t.rev_blocks <- b :: t.rev_blocks;
  t.len <- t.len + 1;
  b

let height t = t.len
let blocks t = List.rev t.rev_blocks

let blocks_from t ~height =
  (* rev_blocks holds the newest first: the suffix from [height] is its
     first [len - height] elements, reversed — O(new blocks), so a
     poller re-reading only the growth stays cheap. *)
  let rec take acc k l =
    if k = 0 then acc
    else match l with [] -> acc | b :: rest -> take (b :: acc) (k - 1) rest
  in
  if height >= t.len then [] else take [] (t.len - height) t.rev_blocks

let verify t =
  let rec go prev = function
    | [] -> true
    | (b : block) :: rest ->
        String.equal b.prev_hash prev
        && String.equal b.block_hash
             (hash_block ~height:b.height ~gid:b.gid ~seq:b.seq
                ~txn_count:b.txn_count ~payload_digest:b.payload_digest
                ~prev_hash:b.prev_hash)
        && go b.block_hash rest
  in
  go genesis_hash (blocks t)

let equal_prefix a b =
  let rec go n = function
    | ba :: ra, bb :: rb when String.equal ba.block_hash bb.block_hash ->
        go (n + 1) (ra, rb)
    | _ -> n
  in
  go 0 (blocks a, blocks b)
