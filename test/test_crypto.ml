(* Tests for the cryptographic substrate: SHA-256 against NIST/FIPS
   vectors, HMAC against RFC 4231, the simulated-PKI signature scheme,
   and Merkle trees/proofs. *)

open Massbft_crypto
module Hexdump = Massbft_util.Hexdump

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* SHA-256                                                             *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  (* FIPS 180-4 / NIST CAVP short-message vectors. *)
  check_str "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  check_str "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  check_str "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_str "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha256_million_a () =
  (* The classic 1,000,000 x 'a' vector, fed incrementally to exercise
     buffering across block boundaries. *)
  let ctx = Sha256.init () in
  let chunk = String.make 997 'a' in
  let fed = ref 0 in
  while !fed + 997 <= 1_000_000 do
    Sha256.update ctx chunk;
    fed := !fed + 997
  done;
  Sha256.update ctx (String.make (1_000_000 - !fed) 'a');
  check_str "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hexdump.encode (Sha256.finalize ctx))

let test_sha256_incremental_equals_oneshot () =
  let msg = String.init 300 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  Sha256.update ctx (String.sub msg 0 100);
  Sha256.update ctx (String.sub msg 100 50);
  Sha256.update ctx (String.sub msg 150 150);
  check_str "incremental = one-shot" (Sha256.digest msg) (Sha256.finalize ctx)

let test_sha256_block_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding boundaries are the
     classic implementation traps. *)
  List.iter
    (fun n ->
      let msg = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update ctx (String.make 1 c)) msg;
      check_str
        (Printf.sprintf "len %d byte-at-a-time" n)
        (Sha256.digest msg) (Sha256.finalize ctx))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 127; 128; 129 ]

let test_sha256_update_bytes_range () =
  let buf = Bytes.of_string "xxabcyy" in
  let ctx = Sha256.init () in
  Sha256.update_bytes ctx buf ~pos:2 ~len:3;
  check_str "sub-range" (Sha256.digest "abc") (Sha256.finalize ctx);
  let ctx2 = Sha256.init () in
  Alcotest.check_raises "out-of-bounds range"
    (Invalid_argument "Sha256.update_bytes: range out of bounds") (fun () ->
      Sha256.update_bytes ctx2 buf ~pos:5 ~len:10)

let prop_sha256_deterministic_and_sized =
  QCheck.Test.make ~name:"sha256 is 32 bytes and deterministic" QCheck.string
    (fun s -> Sha256.digest s = Sha256.digest s && String.length (Sha256.digest s) = 32)

let prop_sha256_incremental =
  QCheck.Test.make ~name:"sha256 split-anywhere equals one-shot"
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub s 0 cut);
      Sha256.update ctx (String.sub s cut (String.length s - cut));
      Sha256.finalize ctx = Sha256.digest s)

(* ------------------------------------------------------------------ *)
(* HMAC (RFC 4231)                                                     *)
(* ------------------------------------------------------------------ *)

let test_hmac_rfc4231 () =
  (* Test case 1 *)
  check_str "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hexdump.encode (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  (* Test case 2 *)
  check_str "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hexdump.encode (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  (* Test case 3: 20-byte 0xaa key, 50-byte 0xdd data *)
  check_str "tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hexdump.encode
       (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  (* Test case 6: key longer than a block *)
  check_str "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hexdump.encode
       (Hmac.mac
          ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let tag = Hmac.mac ~key msg in
  check_bool "accepts valid" true (Hmac.verify ~key ~msg ~tag);
  check_bool "rejects wrong msg" false (Hmac.verify ~key ~msg:"other" ~tag);
  check_bool "rejects wrong key" false (Hmac.verify ~key:"nope" ~msg ~tag);
  check_bool "rejects truncated tag" false
    (Hmac.verify ~key ~msg ~tag:(String.sub tag 0 16))

(* ------------------------------------------------------------------ *)
(* Merkle                                                              *)
(* ------------------------------------------------------------------ *)

let chunks n = List.init n (fun i -> Printf.sprintf "chunk-%d-payload" i)

let test_merkle_single_leaf () =
  let t = Merkle.build [ "only" ] in
  Alcotest.(check int) "leaf count" 1 (Merkle.leaf_count t);
  check_str "root of single leaf is its leaf hash" (Merkle.leaf_hash "only")
    (Merkle.root t);
  let p = Merkle.prove t 0 in
  check_bool "empty-path proof verifies" true
    (Merkle.verify ~root:(Merkle.root t) ~leaf:"only" p)

let test_merkle_proofs_all_leaves () =
  (* Cover power-of-two and odd leaf counts, including the self-pairing
     edge. *)
  List.iter
    (fun n ->
      let leaves = chunks n in
      let t = Merkle.build leaves in
      let root = Merkle.root t in
      List.iteri
        (fun i leaf ->
          let p = Merkle.prove t i in
          check_bool
            (Printf.sprintf "n=%d leaf %d verifies" n i)
            true
            (Merkle.verify ~root ~leaf p))
        leaves)
    [ 1; 2; 3; 4; 5; 7; 8; 13; 28 ]

let test_merkle_rejects_tampering () =
  let t = Merkle.build (chunks 8) in
  let root = Merkle.root t in
  let p = Merkle.prove t 3 in
  check_bool "tampered leaf rejected" false
    (Merkle.verify ~root ~leaf:"chunk-3-PAYLOAD" p);
  check_bool "leaf under wrong index rejected" false
    (Merkle.verify ~root ~leaf:"chunk-4-payload" p)

let test_merkle_root_depends_on_order () =
  let a = Merkle.build [ "x"; "y" ] in
  let b = Merkle.build [ "y"; "x" ] in
  check_bool "order matters" false (String.equal (Merkle.root a) (Merkle.root b))

let test_merkle_domain_separation () =
  (* A leaf must not be confusable with an internal node: the tree of
     [h(x); h(y)] is not the tree of [x; y]. *)
  let inner = Merkle.build [ "x"; "y" ] in
  let crafted = Merkle.build [ Merkle.leaf_hash "x"; Merkle.leaf_hash "y" ] in
  check_bool "no second-preimage splice" false
    (String.equal (Merkle.root inner) (Merkle.root crafted))

let test_merkle_proof_size () =
  let t = Merkle.build (chunks 28) in
  let p = Merkle.prove t 0 in
  (* 28 leaves -> 5 levels of siblings. *)
  Alcotest.(check int) "proof size" ((32 * 5) + 4) (Merkle.proof_size p)

let test_merkle_empty () =
  Alcotest.check_raises "empty build"
    (Invalid_argument "Merkle.build: empty leaf list") (fun () ->
      ignore (Merkle.build []))

let prop_merkle_all_proofs_verify =
  QCheck.Test.make ~name:"every leaf of a random tree proves"
    QCheck.(list_of_size Gen.(int_range 1 40) string)
    (fun leaves ->
      let t = Merkle.build leaves in
      let root = Merkle.root t in
      List.for_all2
        (fun i leaf -> Merkle.verify ~root ~leaf (Merkle.prove t i))
        (List.init (List.length leaves) Fun.id)
        leaves)

let prop_merkle_cross_tree_rejection =
  QCheck.Test.make ~name:"proofs do not transfer across distinct"
    QCheck.(pair (list_of_size Gen.(int_range 2 20) printable_string) small_nat)
    (fun (leaves, idx) ->
      let t1 = Merkle.build leaves in
      let t2 = Merkle.build (List.map (fun l -> l ^ "!") leaves) in
      let i = idx mod List.length leaves in
      let leaf = List.nth leaves i in
      (* Either the roots coincide (impossible for distinct leaf sets
         under a collision-resistant hash) or verification fails. *)
      String.equal (Merkle.root t1) (Merkle.root t2)
      || not (Merkle.verify ~root:(Merkle.root t2) ~leaf (Merkle.prove t1 i)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "massbft_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million 'a'" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental_equals_oneshot;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "update_bytes range" `Quick test_sha256_update_bytes_range;
          qt prop_sha256_deterministic_and_sized;
          qt prop_sha256_incremental;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "single leaf" `Quick test_merkle_single_leaf;
          Alcotest.test_case "all leaves prove" `Quick test_merkle_proofs_all_leaves;
          Alcotest.test_case "tampering rejected" `Quick test_merkle_rejects_tampering;
          Alcotest.test_case "order sensitivity" `Quick test_merkle_root_depends_on_order;
          Alcotest.test_case "domain separation" `Quick test_merkle_domain_separation;
          Alcotest.test_case "proof size" `Quick test_merkle_proof_size;
          Alcotest.test_case "empty rejected" `Quick test_merkle_empty;
          qt prop_merkle_all_proofs_verify;
          qt prop_merkle_cross_tree_rejection;
        ] );
    ]
