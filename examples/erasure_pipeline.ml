(* The encoded bijective replication pipeline on real bytes, without
   the simulator: Algorithm 1's transfer plan, deterministic erasure
   coding with Merkle authentication, a colluding-tamper attack, bucket
   classification, DoS blacklisting, and the optimistic rebuild —
   exactly the paper's §IV walked through step by step.

   Run with:  dune exec examples/erasure_pipeline.exe *)

module Transfer_plan = Massbft.Transfer_plan
module Chunker = Massbft.Chunker
module Rebuild = Massbft.Rebuild
module Hexdump = Massbft_util.Hexdump

let () =
  (* The paper's §IV-B case study: a 4-node group ships an entry to a
     7-node group. *)
  let plan = Transfer_plan.generate ~n1:4 ~n2:7 in
  Printf.printf
    "plan 4->7: %d chunks total (%d data + %d parity), each sender ships %d, \
     each receiver takes %d; %.2f entry copies cross the WAN (vs %d for \
     bijective full copies)\n\n"
    plan.Transfer_plan.n_total plan.Transfer_plan.n_data
    plan.Transfer_plan.n_parity plan.Transfer_plan.nc_send
    plan.Transfer_plan.nc_recv
    (Transfer_plan.redundancy plan)
    4;

  (* An entry: pretend it is a 20 KB batch of certified transactions. *)
  let entry = String.init 20_000 (fun i -> Char.chr ((i * 131) land 0xff)) in
  let entry_digest = Massbft_crypto.Sha256.digest entry in

  (* Every correct sender derives the identical chunk set. *)
  let chunks = Chunker.encode ~plan ~entry in
  Printf.printf "encoded %d chunks of %d B each, Merkle root %s\n"
    (Array.length chunks)
    (String.length chunks.(0).Chunker.payload)
    (Hexdump.short chunks.(0).Chunker.root);

  (* The adversary: sender node 3 is Byzantine and ships chunks encoded
     from a TAMPERED entry; receivers cannot tell them apart by sight —
     the payloads carry valid Merkle proofs under a different root. *)
  let tampered = String.map (fun c -> Char.chr (Char.code c lxor 1)) entry in
  let fake_chunks = Chunker.encode ~plan ~entry:tampered in
  Printf.printf "adversary encoded a tampered entry under root %s\n\n"
    (Hexdump.short fake_chunks.(0).Chunker.root);

  (* A receiver's view: it gets node 3's chunk ids in the fake version
     and everything else genuine; feed them interleaved. *)
  let rb =
    Rebuild.create ~plan
      ~validate:(fun candidate ->
        String.equal (Massbft_crypto.Sha256.digest candidate) entry_digest)
      ()
  in
  let byz_sender = 3 in
  let byz_ids = List.map fst (Transfer_plan.sends_of plan ~sender:byz_sender) in
  Printf.printf "byzantine sender %d controls chunk ids: %s\n" byz_sender
    (String.concat "," (List.map string_of_int byz_ids));
  let rebuilt = ref None in
  Array.iteri
    (fun i _ ->
      let c = if List.mem i byz_ids then fake_chunks.(i) else chunks.(i) in
      match Rebuild.add rb c with
      | Rebuild.Rebuilt e ->
          if !rebuilt = None then begin
            rebuilt := Some e;
            Printf.printf "chunk %2d completed a valid bucket -> entry rebuilt!\n" i
          end
      | Rebuild.Rejected_fake_bucket ids ->
          Printf.printf
            "chunk %2d filled a bucket that FAILED certificate validation; \
             blacklisted ids: %s\n"
            i
            (String.concat "," (List.map string_of_int ids))
      | Rebuild.Rejected_blacklisted ->
          Printf.printf "chunk %2d refused: its id is blacklisted (DoS guard)\n" i
      | Rebuild.Accepted | Rebuild.Already_done -> ()
      | Rebuild.Rejected_proof -> Printf.printf "chunk %2d: bad Merkle proof\n" i
      | Rebuild.Rejected_duplicate -> ())
    chunks;

  match !rebuilt with
  | Some e ->
      Printf.printf
        "\nrebuilt entry matches the original: %b (%d bytes, digest %s)\n"
        (String.equal e entry) (String.length e)
        (Hexdump.short (Massbft_crypto.Sha256.digest e));
      if not (String.equal e entry) then exit 1
  | None ->
      print_endline "\nrebuild failed";
      exit 1
