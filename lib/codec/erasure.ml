module Rs8 = Reed_solomon.Make (Field.Gf8)
module Rs16 = Reed_solomon.Make (Field.Gf16)

type field = Gf8 | Gf16

let header_len = 8

let field_for ~total =
  if total < 1 then invalid_arg "Erasure.field_for: need >= 1 shard"
  else if total <= 255 then Gf8
  else if total <= 65535 then Gf16
  else invalid_arg "Erasure.field_for: more than 65535 shards"

let frame entry =
  let len = String.length entry in
  let hdr = Bytes.create header_len in
  Bytes.set_int64_le hdr 0 (Int64.of_int len);
  Bytes.unsafe_to_string hdr ^ entry

let unframe framed =
  if String.length framed < header_len then Error "decode: truncated frame"
  else begin
    let len =
      Int64.to_int (Bytes.get_int64_le (Bytes.unsafe_of_string framed) 0)
    in
    if len < 0 || len > String.length framed - header_len then
      Error "decode: corrupt length header"
    else Ok (String.sub framed header_len len)
  end

let split_shards framed ~data ~shard_size =
  Array.init data (fun i ->
      let shard = Bytes.make shard_size '\x00' in
      let off = i * shard_size in
      let avail = String.length framed - off in
      if avail > 0 then
        Bytes.blit_string framed off shard 0 (min shard_size avail);
      shard)

(* Dispatch between the two field widths without duplicating logic. *)
type codec =
  | C8 of Rs8.t
  | C16 of Rs16.t

(* Codecs are memoized per (data, parity): constructing one builds and
   inverts the systematic encoding matrix — O(data^3) field ops, ~15M
   for the GF(2^16) 180+120 regime — while the dissemination path
   encodes thousands of entries against a handful of transfer-plan
   geometries. The lock is held across construction so concurrent
   domains wait for one deterministic build
   instead of duplicating it; invalid parameters raise inside
   [field_for]/[create] before anything is cached, so error behavior
   is identical on every call. *)
let codec_cache : (int * int, codec) Hashtbl.t = Hashtbl.create 8
let codec_lock = Mutex.create ()
let codec_cache_max = 64

let make_codec ~data ~parity =
  Mutex.protect codec_lock (fun () ->
      match Hashtbl.find_opt codec_cache (data, parity) with
      | Some c -> c
      | None ->
          let c =
            match field_for ~total:(data + parity) with
            | Gf8 -> C8 (Rs8.create ~data ~parity)
            | Gf16 -> C16 (Rs16.create ~data ~parity)
          in
          if Hashtbl.length codec_cache >= codec_cache_max then
            Hashtbl.reset codec_cache;
          Hashtbl.replace codec_cache (data, parity) c;
          c)

let codec_shard_size c len =
  match c with
  | C8 rs -> Rs8.shard_size_for rs len
  | C16 rs -> Rs16.shard_size_for rs len

let codec_encode c shards =
  match c with C8 rs -> Rs8.encode rs shards | C16 rs -> Rs16.encode rs shards

let codec_reconstruct c slots =
  match c with
  | C8 rs -> Rs8.reconstruct rs slots
  | C16 rs -> Rs16.reconstruct rs slots

(* Arithmetic only, with the checks [make_codec] makes in the same
   order: sizing a chunk builds no codec and takes no lock. *)
let chunk_size ~data ~parity ~entry_len =
  let symbol_bytes =
    match field_for ~total:(data + parity) with
    | Gf8 -> Field.Gf8.symbol_bytes
    | Gf16 -> Field.Gf16.symbol_bytes
  in
  Reed_solomon.check_counts ~data ~parity;
  Reed_solomon.shard_size ~data ~symbol_bytes (entry_len + header_len)

let encode ~data ~parity entry =
  let c = make_codec ~data ~parity in
  let framed = frame entry in
  let shard_size = codec_shard_size c (String.length framed) in
  let data_shards = split_shards framed ~data ~shard_size in
  let parity_shards = codec_encode c data_shards in
  Array.append
    (Array.map Bytes.unsafe_to_string data_shards)
    (Array.map Bytes.unsafe_to_string parity_shards)

let decode ~data ~parity chunks =
  let total = data + parity in
  let slots = Array.make total None in
  let dup = ref None in
  List.iter
    (fun (i, payload) ->
      if i < 0 || i >= total then dup := Some "decode: chunk index out of range"
      else
        match slots.(i) with
        | Some _ -> dup := Some "decode: duplicate chunk index"
        | None -> slots.(i) <- Some (Bytes.of_string payload))
    chunks;
  match !dup with
  | Some e -> Error e
  | None -> (
      let c = make_codec ~data ~parity in
      match codec_reconstruct c slots with
      | Error e -> Error e
      | Ok data_shards ->
          let framed =
            String.concat "" (Array.to_list (Array.map Bytes.to_string data_shards))
          in
          unframe framed)
