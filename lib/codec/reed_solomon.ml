(* The geometry checks and shard sizing need no codec, so a caller can
   size shards without building (and inverting) an encoding matrix. *)
let check_counts ~data ~parity =
  if data < 1 then invalid_arg "Reed_solomon.create: need >= 1 data shard";
  if parity < 0 then invalid_arg "Reed_solomon.create: negative parity"

let shard_size ~data ~symbol_bytes len =
  if len < 0 then invalid_arg "Reed_solomon.shard_size_for: negative length";
  let raw = Massbft_util.Intmath.cdiv (max len 1) data in
  Massbft_util.Intmath.cdiv raw symbol_bytes * symbol_bytes

module Make (F : Field.S) = struct
  module M = Matrix.Make (F)

  type t = {
    data : int;
    parity : int;
    enc : M.t;
    (* Decode matrices keyed by the chosen row set (klauspost's
       inversion-tree idea in flat form): rebuilding the same erasure
       pattern — the common case, since Rebuild feeds shards in index
       order — costs a hash lookup instead of an O(data^3) inversion,
       which for GF(2^16) at 180 data shards dominates the decode.
       Guarded by a mutex for multi-domain callers; bounded so a
       pathological erasure mix cannot grow it without limit. *)
    dec_cache : (string, M.t) Hashtbl.t;
    dec_lock : Mutex.t;
  }

  let dec_cache_max = 256

  let create ~data ~parity =
    check_counts ~data ~parity;
    if data + parity > F.order - 1 then
      invalid_arg "Reed_solomon.create: too many shards for the field";
    let total = data + parity in
    let vm = M.vandermonde total data in
    (* Normalize the top square to the identity so the code is
       systematic: enc = vm * inv(top(vm)). Any `data` rows of a
       Vandermonde matrix are independent, so the inverse exists. *)
    let top = M.select_rows vm (Array.init data (fun i -> i)) in
    let enc =
      match M.invert top with
      | Some ti -> M.mul vm ti
      | None -> assert false
    in
    {
      data;
      parity;
      enc;
      dec_cache = Hashtbl.create 16;
      dec_lock = Mutex.create ();
    }

  let data t = t.data
  let parity t = t.parity
  let total t = t.data + t.parity

  let shard_size_for t len = shard_size ~data:t.data ~symbol_bytes:F.symbol_bytes len

  let check_shards t shards =
    if Array.length shards <> t.data then
      invalid_arg "Reed_solomon.encode: wrong number of data shards";
    let size = Bytes.length shards.(0) in
    if size = 0 || size mod F.symbol_bytes <> 0 then
      invalid_arg "Reed_solomon.encode: shard size not a symbol multiple";
    Array.iter
      (fun s ->
        if Bytes.length s <> size then
          invalid_arg "Reed_solomon.encode: unequal shard sizes")
      shards;
    size

  (* out.(r) <- sum_c rowsel(r, c) * inputs.(c), one fused row pass per
     output: the field validates the row once, resolves each memoized
     product table once, and touches every source slice exactly once
     per output row. *)
  let apply_rows rowsel ~nrows inputs size =
    Array.init nrows (fun r ->
        let dst = Bytes.create size in
        let coeffs = Array.init (Array.length inputs) (fun c -> rowsel r c) in
        F.mul_row ~coeffs inputs dst;
        dst)

  let encode t shards =
    let size = check_shards t shards in
    apply_rows
      (fun r c -> M.get t.enc (t.data + r) c)
      ~nrows:t.parity shards size

  (* Two bytes per row index (indices < total <= 65535). *)
  let dec_key row_idx =
    let b = Bytes.create (2 * Array.length row_idx) in
    Array.iteri (fun i r -> Bytes.set_uint16_le b (2 * i) r) row_idx;
    Bytes.unsafe_to_string b

  let decode_matrix t row_idx =
    let key = dec_key row_idx in
    let cached =
      Mutex.lock t.dec_lock;
      let v = Hashtbl.find_opt t.dec_cache key in
      Mutex.unlock t.dec_lock;
      v
    in
    match cached with
    | Some dec -> Some dec
    | None -> (
        let sub = M.select_rows t.enc row_idx in
        match M.invert sub with
        | None -> None
        | Some dec ->
            Mutex.lock t.dec_lock;
            (* A concurrent decode of the same pattern computed the same
               deterministic matrix; replacing it is harmless. *)
            if Hashtbl.length t.dec_cache >= dec_cache_max then
              Hashtbl.reset t.dec_cache;
            Hashtbl.replace t.dec_cache key dec;
            Mutex.unlock t.dec_lock;
            Some dec)

  let reconstruct t shards =
    let total = total t in
    if Array.length shards <> total then
      Error "reconstruct: expected one slot per shard"
    else begin
      let present =
        Array.to_list (Array.mapi (fun i s -> (i, s)) shards)
        |> List.filter_map (fun (i, s) ->
               match s with Some b -> Some (i, b) | None -> None)
      in
      if List.length present < t.data then
        Error
          (Printf.sprintf "reconstruct: only %d of %d required shards present"
             (List.length present) t.data)
      else begin
        let chosen = Array.of_list (List.filteri (fun i _ -> i < t.data) present) in
        let size = Bytes.length (snd chosen.(0)) in
        let ok_sizes =
          Array.for_all (fun (_, b) -> Bytes.length b = size) chosen
          && size > 0
          && size mod F.symbol_bytes = 0
        in
        if not ok_sizes then Error "reconstruct: inconsistent shard sizes"
        else begin
          let row_idx = Array.map fst chosen in
          let inputs = Array.map snd chosen in
          match decode_matrix t row_idx with
          | None -> Error "reconstruct: singular decode matrix"
          | Some dec ->
              Ok (apply_rows (fun r c -> M.get dec r c) ~nrows:t.data inputs size)
        end
      end
    end

  let encoding_row t i =
    if i < 0 || i >= total t then
      invalid_arg "Reed_solomon.encoding_row: out of range";
    Array.init t.data (fun c -> M.get t.enc i c)
end
