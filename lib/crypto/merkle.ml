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

type multiproof = { mp_indices : int list; mp_nodes : string list }

module ISet = Set.Make (Int)

(* Walk the tree level by level. At each level the verifier will know
   the hashes at [known] positions; every sibling of a known position
   that is not itself known must travel in the proof. *)
let multiproof_plan t indices =
  let rec go lvl known acc =
    if lvl >= Array.length t.levels - 1 then List.rev acc
    else begin
      let width = Array.length t.levels.(lvl) in
      let needed =
        ISet.fold
          (fun i need ->
            let sib = i lxor 1 in
            if sib < width && not (ISet.mem sib known) then ISet.add sib need
            else need)
          known ISet.empty
      in
      let parents =
        ISet.fold (fun i ps -> ISet.add (i / 2) ps) known ISet.empty
      in
      go (lvl + 1) parents ((lvl, ISet.elements needed) :: acc)
    end
  in
  go 0 (ISet.of_list indices) []

let check_indices t indices =
  if indices = [] then invalid_arg "Merkle.prove_many: empty index list";
  let set = ISet.of_list indices in
  if ISet.cardinal set <> List.length indices then
    invalid_arg "Merkle.prove_many: duplicate indices";
  if ISet.min_elt set < 0 || ISet.max_elt set >= leaf_count t then
    invalid_arg "Merkle.prove_many: index out of range";
  ISet.elements set

let prove_many t indices =
  let indices = check_indices t indices in
  let nodes =
    List.concat_map
      (fun (lvl, needs) -> List.map (fun i -> t.levels.(lvl).(i)) needs)
      (multiproof_plan t indices)
  in
  { mp_indices = indices; mp_nodes = nodes }

let verify_many ~root:expected ~leaf_count ~leaves mp =
  let module IMap = Map.Make (Int) in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) leaves in
  if leaf_count < 1 || List.map fst sorted <> mp.mp_indices then false
  else begin
    let known =
      List.fold_left
        (fun m (i, leaf) -> IMap.add i (leaf_hash leaf) m)
        IMap.empty sorted
    in
    (* Mirror the prover level by level, using the known tree widths to
       decide which siblings exist (odd tail nodes self-pair). *)
    let rec go known width nodes =
      if width = 1 then
        nodes = []
        &&
        (match IMap.find_opt 0 known with
        | Some h -> String.equal h expected
        | None -> false)
      else begin
        let needed =
          IMap.fold
            (fun i _ need ->
              let sib = i lxor 1 in
              if sib < width && not (IMap.mem sib known) then ISet.add sib need
              else need)
            known ISet.empty
        in
        let rec take set nodes acc =
          match (ISet.min_elt_opt set, nodes) with
          | None, rest -> Some (acc, rest)
          | Some i, h :: rest -> take (ISet.remove i set) rest ((i, h) :: acc)
          | Some _, [] -> None
        in
        match take needed nodes [] with
        | None -> false
        | Some (fills, rest_nodes) ->
            let level =
              List.fold_left (fun m (i, h) -> IMap.add i h m) known fills
            in
            let parents =
              IMap.fold
                (fun i h m ->
                  let sib = i lxor 1 in
                  let pair =
                    if sib >= width then node_hash h h
                    else
                      match IMap.find_opt sib level with
                      | Some sh ->
                          if i land 1 = 0 then node_hash h sh else node_hash sh h
                      | None ->
                          (* Cannot happen for a well-formed proof: the
                             sibling was either known or filled. Treat a
                             hole as a verification failure by producing
                             a hash that cannot match. *)
                          leaf_hash "massbft-multiproof-hole"
                  in
                  IMap.add (i / 2) pair m)
                level IMap.empty
            in
            go parents ((width + 1) / 2) rest_nodes
      end
    in
    go known leaf_count mp.mp_nodes
  end

let multiproof_size mp =
  (32 * List.length mp.mp_nodes) + (4 * List.length mp.mp_indices)
