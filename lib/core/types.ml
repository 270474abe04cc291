type entry_id = { gid : int; seq : int }

let entry_id_to_string e = Massbft_workload.Keyfmt.cat2 "e(" e.gid "," e.seq ")"

let entry_id_compare a b =
  let c = compare a.gid b.gid in
  if c <> 0 then c else compare a.seq b.seq

let entry_id_equal a b = a.gid = b.gid && a.seq = b.seq

module Entry_ord = struct
  type t = entry_id

  let compare = entry_id_compare
end

module Entry_map = Map.Make (Entry_ord)

module Entry_hash = struct
  type t = entry_id

  let equal = entry_id_equal
  let hash e = (e.gid * 1_000_003) + e.seq
end

module Entry_tbl = Hashtbl.Make (Entry_hash)

let signature_bytes = 64
let digest_bytes = 32
let header_bytes = 48

let certificate_bytes ~n =
  let f = Massbft_util.Intmath.pbft_f n in
  let quorum = (2 * f) + 1 in
  (quorum * (signature_bytes + 4)) + digest_bytes + header_bytes

let copy_bytes ~n ~entry_len = entry_len + certificate_bytes ~n

let vote_bytes = digest_bytes + signature_bytes + header_bytes

let raft_meta_bytes ~n = certificate_bytes ~n + digest_bytes + header_bytes + 16
