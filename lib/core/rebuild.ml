module Bitset = Massbft_util.Bitset

type 'e verdict =
  | Accepted
  | Rebuilt of 'e
  | Rejected_proof
  | Rejected_blacklisted
  | Rejected_duplicate
  | Rejected_fake_bucket of int list
  | Already_done

(* A payload model: how to read a chunk's id and bucket key (its Merkle
   root, or the root tag standing in for it), whether a chunk is well
   formed, what a bucket keeps of its chunks, and how a full bucket is
   rebuilt and validated against the entry's certificate. *)
module type PAYLOAD = sig
  type chunk
  type held
  type cert
  type entry

  val index : chunk -> int
  val key : chunk -> string
  val well_formed : Transfer_plan.t -> chunk -> bool
  val empty : held
  val hold : held -> chunk -> held
  val rebuild : Transfer_plan.t -> cert -> string -> held -> entry option
end

module Classifier (P : PAYLOAD) = struct
  type bucket = {
    key : string;
    ids : Bitset.t;
    mutable held : P.held;
  }

  (* Buckets are a list: one genuine root plus one per fake encoding
     (the tamper adversary makes one per entry), so it stays short. *)
  type t = { mutable buckets : bucket list; black : Bitset.t }

  let create () = { buckets = []; black = Bitset.create () }
  let find t key = List.find_opt (fun b -> String.equal b.key key) t.buckets

  let add t ~plan cert c =
    let i = P.index c in
    if Bitset.mem t.black i then Rejected_blacklisted
    else if not (P.well_formed plan c) then Rejected_proof
    else
      let b =
        match find t (P.key c) with
        | Some b -> b
        | None ->
            let b = { key = P.key c; ids = Bitset.create (); held = P.empty } in
            t.buckets <- b :: t.buckets;
            b
      in
      if Bitset.mem b.ids i then Rejected_duplicate
      else begin
        Bitset.add b.ids i;
        b.held <- P.hold b.held c;
        if Bitset.cardinal b.ids < plan.Transfer_plan.n_data then Accepted
        else
          match P.rebuild plan cert b.key b.held with
          | Some entry -> Rebuilt entry
          | None ->
              (* Every chunk under this key is fake: burn the ids and drop
                 the bucket. Other (also fake) buckets holding burned ids
                 can keep waiting; they never validate. *)
              let ids = Bitset.elements b.ids in
              List.iter (Bitset.add t.black) ids;
              t.buckets <- List.filter (fun b' -> b' != b) t.buckets;
              Rejected_fake_bucket ids
      end

  let blacklisted t = Bitset.elements t.black

  let bucket_size t key =
    match find t key with Some b -> Bitset.cardinal b.ids | None -> 0
end

type symbolic_chunk = { root_tag : string; index : int }

module Symbolic = Classifier (struct
  type chunk = symbolic_chunk
  type held = unit
  type cert = string
  type entry = unit

  let index c = c.index
  let key c = c.root_tag
  let well_formed _ _ = true
  let empty = ()
  let hold () _ = ()
  let rebuild _ digest root_tag () = if String.equal root_tag digest then Some () else None
end)

module Bytes_classifier = Classifier (struct
  type chunk = Chunker.chunk
  type held = (int * string) list
  type cert = string -> bool
  type entry = string

  let index (c : chunk) = c.Chunker.index
  let key (c : chunk) = c.Chunker.root

  let well_formed plan (c : chunk) =
    c.Chunker.index >= 0 && c.Chunker.index < plan.Transfer_plan.n_total && Chunker.verify_chunk c

  let empty = []
  let hold held (c : chunk) = (c.Chunker.index, c.Chunker.payload) :: held

  let rebuild plan validate _root held =
    let open Transfer_plan in
    match Massbft_codec.Erasure.decode ~data:plan.n_data ~parity:plan.n_parity held with
    | Ok entry when validate entry -> Some entry
    | Ok _ | Error _ -> None
end)

type t = {
  plan : Transfer_plan.t;
  validate : string -> bool;
  cls : Bytes_classifier.t;
  mutable rebuilt : string option;
}

let create ~plan ~validate () = { plan; validate; cls = Bytes_classifier.create (); rebuilt = None }

let add t c =
  match t.rebuilt with
  | Some _ -> Already_done
  | None ->
      let v = Bytes_classifier.add t.cls ~plan:t.plan t.validate c in
      (match v with Rebuilt entry -> t.rebuilt <- Some entry | _ -> ());
      v

let result t = t.rebuilt
let blacklisted t = Bytes_classifier.blacklisted t.cls
