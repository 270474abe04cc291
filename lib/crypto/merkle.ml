type tree = { levels : string array array }
(* levels.(0) are the leaf hashes; the last level is the singleton root. *)

type proof = { leaf_index : int; path : string list }

(* Domain-separated hashing through one reused context per domain:
   feeding the tag and operands as separate updates avoids the per-hash
   concatenation copy ("\x01" ^ l ^ r), which the replication verify
   path paid on every tree node of every received chunk. The context is
   domain-local (callers may hash from several domains at once);
   neither hash re-enters the other within a domain, so one scratch per
   domain suffices. *)
let scratch = Domain.DLS.new_key Sha256.init

let leaf_hash data =
  let c = Domain.DLS.get scratch in
  Sha256.reset c;
  Sha256.update c "\x00";
  Sha256.update c data;
  Sha256.finalize c

let node_hash l r =
  let c = Domain.DLS.get scratch in
  Sha256.reset c;
  Sha256.update c "\x01";
  Sha256.update c l;
  Sha256.update c r;
  Sha256.finalize c

let build leaves =
  if leaves = [] then invalid_arg "Merkle.build: empty leaf list";
  let level0 = Array.of_list (List.map leaf_hash leaves) in
  let rec grow acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else begin
      let n = Array.length level in
      let next =
        Array.init ((n + 1) / 2) (fun i ->
            let l = level.(2 * i) in
            let r = if (2 * i) + 1 < n then level.((2 * i) + 1) else l in
            node_hash l r)
      in
      grow (level :: acc) next
    end
  in
  { levels = Array.of_list (grow [] level0) }

let root t = t.levels.(Array.length t.levels - 1).(0)
let leaf_count t = Array.length t.levels.(0)

let prove t i =
  if i < 0 || i >= leaf_count t then invalid_arg "Merkle.prove: index out of range";
  let path = ref [] in
  let idx = ref i in
  for lvl = 0 to Array.length t.levels - 2 do
    let level = t.levels.(lvl) in
    let sibling =
      let j = !idx lxor 1 in
      if j < Array.length level then level.(j) else level.(!idx)
    in
    path := sibling :: !path;
    idx := !idx / 2
  done;
  { leaf_index = i; path = List.rev !path }

let verify ~root:expected ~leaf proof =
  let acc = ref (leaf_hash leaf) in
  let idx = ref proof.leaf_index in
  List.iter
    (fun sibling ->
      acc :=
        (if !idx land 1 = 0 then node_hash !acc sibling
         else node_hash sibling !acc);
      idx := !idx / 2)
    proof.path;
  String.equal !acc expected

let proof_size proof = (32 * List.length proof.path) + 4
