(* Tests for the erasure-coding substrate: field axioms in GF(2^8) and
   GF(2^16), matrix algebra, Reed-Solomon round-trips under erasure
   patterns, and the high-level Erasure entry codec. *)

open Massbft_codec
module Rng = Massbft_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Field laws                                                          *)
(* ------------------------------------------------------------------ *)

module type FIELD_OPS = sig
  val order : int
  val add : int -> int -> int
  val mul : int -> int -> int
  val div : int -> int -> int
  val inv : int -> int
end

let field_law_tests (module F : FIELD_OPS) name sample_count =
  let rng = Rng.create 77L in
  let rand () = Rng.int rng F.order in
  let rand_nz () = 1 + Rng.int rng (F.order - 1) in
  for _ = 1 to sample_count do
    let a = rand () and b = rand () and c = rand () in
    check_int (name ^ ": add commutes") (F.add a b) (F.add b a);
    check_int (name ^ ": mul commutes") (F.mul a b) (F.mul b a);
    check_int (name ^ ": mul associates")
      (F.mul a (F.mul b c))
      (F.mul (F.mul a b) c);
    check_int
      (name ^ ": distributivity")
      (F.mul a (F.add b c))
      (F.add (F.mul a b) (F.mul a c));
    check_int (name ^ ": add identity") a (F.add a 0);
    check_int (name ^ ": mul identity") a (F.mul a 1);
    check_int (name ^ ": additive self-inverse") 0 (F.add a a);
    let nz = rand_nz () in
    check_int (name ^ ": mul inverse") 1 (F.mul nz (F.inv nz));
    check_int (name ^ ": div inverts mul") a (F.div (F.mul a nz) nz)
  done

let test_gf256_laws () = field_law_tests (module Gf256) "gf256" 500
let test_gf65536_laws () = field_law_tests (module Gf65536) "gf65536" 200

let test_gf256_exhaustive_inverse () =
  (* Small enough to check every element. *)
  for a = 1 to 255 do
    check_int "a * inv a = 1" 1 (Gf256.mul a (Gf256.inv a))
  done

let test_gf_zero_division () =
  Alcotest.check_raises "gf256 div by zero" Division_by_zero (fun () ->
      ignore (Gf256.div 3 0));
  Alcotest.check_raises "gf65536 div by zero" Division_by_zero (fun () ->
      ignore (Gf65536.div 3 0));
  check_int "0 / x = 0" 0 (Gf256.div 0 7)

let test_gf256_generator_order () =
  (* exp must cycle with period exactly 255 (primitive generator). *)
  check_int "g^255 = g^0 = 1" 1 (Gf256.exp 255);
  check_int "g^0 = 1" 1 (Gf256.exp 0);
  let seen = Array.make 256 false in
  for i = 0 to 254 do
    seen.(Gf256.exp i) <- true
  done;
  let covered = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen in
  check_int "generator covers all 255 nonzero elements" 255 covered

let test_gf_log_exp_inverse () =
  for a = 1 to 255 do
    check_int "exp(log a) = a in gf256" a (Gf256.exp (Gf256.log a))
  done;
  let rng = Rng.create 3L in
  for _ = 1 to 200 do
    let a = 1 + Rng.int rng 65535 in
    check_int "exp(log a) = a in gf65536" a (Gf65536.exp (Gf65536.log a))
  done

let test_exp_negative_exponents () =
  (* Regression: OCaml's [mod] keeps the dividend's sign, so a negative
     exponent used to index exp_table out of bounds. Negative exponents
     are legitimate under g^(order-1) = 1. *)
  check_int "gf256 exp(-1) = exp 254" (Gf256.exp 254) (Gf256.exp (-1));
  check_int "gf256 exp(-255) = exp 0 = 1" 1 (Gf256.exp (-255));
  check_int "gf256 exp(-1) is inv g" 1
    (Gf256.mul (Gf256.exp (-1)) (Gf256.exp 1));
  check_int "gf65536 exp(-1) = exp 65534" (Gf65536.exp 65534)
    (Gf65536.exp (-1));
  check_int "gf65536 exp(-65535) = exp 0 = 1" 1 (Gf65536.exp (-65535));
  check_int "gf65536 exp(-1) is inv g" 1
    (Gf65536.mul (Gf65536.exp (-1)) (Gf65536.exp 1));
  (* Large magnitudes on both sides of zero stay in range. *)
  check_int "gf256 exp(-1000000) indexable" (Gf256.exp (-1000000))
    (Gf256.exp (-1000000 mod 255 + 255));
  check_int "gf65536 wraps forward too" (Gf65536.exp 2) (Gf65536.exp (2 + (3 * 65535)))

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let test_slice_coefficient_validation () =
  (* Regression: coefficients outside the field used to reach
     Array.unsafe_get — undefined behavior, not an exception. Every
     slice entry point must reject them loudly. *)
  let src = Bytes.make 8 'a' and dst = Bytes.make 8 'b' in
  List.iter
    (fun c ->
      expect_invalid "gf256 mul_slice" (fun () -> Gf256.mul_slice c src dst);
      expect_invalid "gf256 mul_slice_set" (fun () ->
          Gf256.mul_slice_set c src dst);
      expect_invalid "gf256 mul_row" (fun () ->
          Gf256.mul_row ~coeffs:[| c |] [| src |] dst))
    [ -1; 256; 65536 ];
  List.iter
    (fun c ->
      expect_invalid "gf65536 mul_slice" (fun () -> Gf65536.mul_slice c src dst);
      expect_invalid "gf65536 mul_slice_set" (fun () ->
          Gf65536.mul_slice_set c src dst);
      expect_invalid "gf65536 mul_row" (fun () ->
          Gf65536.mul_row ~coeffs:[| c |] [| src |] dst))
    [ -1; 65536 ]

let test_slice_fast_paths () =
  let rng = Rng.create 21L in
  let src = Rng.bytes rng 16 in
  (* c = 0: mul_slice leaves dst untouched; mul_slice_set zeroes it. *)
  let dst = Rng.bytes rng 16 in
  let before = Bytes.copy dst in
  Gf256.mul_slice 0 src dst;
  check_bool "gf8 c=0 acc is identity" true (Bytes.equal dst before);
  Gf65536.mul_slice 0 src dst;
  check_bool "gf16 c=0 acc is identity" true (Bytes.equal dst before);
  Gf256.mul_slice_set 0 src dst;
  check_bool "gf8 c=0 set zeroes" true (Bytes.equal dst (Bytes.make 16 '\x00'));
  Gf65536.mul_slice_set 1 src dst;
  check_bool "gf16 c=1 set copies" true (Bytes.equal dst src);
  (* c = 1: acc is XOR; src xor src = 0. *)
  Gf256.mul_slice 1 src dst;
  check_bool "gf8 c=1 acc is xor" true (Bytes.equal dst (Bytes.make 16 '\x00'))

let test_gf16_odd_length_rejected () =
  let b7 = Bytes.make 7 'x' and b7' = Bytes.make 7 'y' in
  expect_invalid "odd mul_slice" (fun () -> Gf65536.mul_slice 3 b7 b7');
  expect_invalid "odd mul_slice_set" (fun () ->
      Gf65536.mul_slice_set 3 b7 b7');
  expect_invalid "odd mul_row" (fun () ->
      Gf65536.mul_row ~coeffs:[| 3 |] [| b7 |] b7');
  let b8 = Bytes.make 8 'x' in
  expect_invalid "mismatched mul_slice" (fun () -> Gf65536.mul_slice 3 b8 b7);
  expect_invalid "mismatched gf8 mul_slice" (fun () ->
      Gf256.mul_slice 3 b8 b7);
  expect_invalid "mismatched xor fast path" (fun () ->
      Gf65536.mul_slice 1 b8 b7)

let get16_le b i =
  Char.code (Bytes.get b (2 * i)) lor (Char.code (Bytes.get b ((2 * i) + 1)) lsl 8)

(* Split-table kernel vs the scalar log/exp product, over lengths that
   exercise both the 64-bit quad loop and the scalar tail, including
   c = 0 and c = 1 fast paths. *)
let prop_gf16_mul_slice_matches_scalar =
  QCheck.Test.make ~name:"gf16 split-table slice = scalar product" ~count:300
    QCheck.(triple (int_range 0 65535) (int_range 0 21) small_int)
    (fun (c, half_len, seed) ->
      let n = 2 * half_len in
      let rng = Rng.create (Int64.of_int ((seed * 65536) + c)) in
      let src = Rng.bytes rng n in
      let dst = Rng.bytes rng n in
      let orig = Bytes.copy dst in
      Gf65536.mul_slice c src dst;
      let ok = ref true in
      for i = 0 to half_len - 1 do
        let expect = get16_le orig i lxor Gf65536.mul c (get16_le src i) in
        if get16_le dst i <> expect then ok := false
      done;
      !ok)

let prop_gf16_mul_slice_set_matches_scalar =
  QCheck.Test.make ~name:"gf16 split-table set = scalar product" ~count:300
    QCheck.(triple (int_range 0 65535) (int_range 0 21) small_int)
    (fun (c, half_len, seed) ->
      let n = 2 * half_len in
      let rng = Rng.create (Int64.of_int ((seed * 65536) + c + 1)) in
      let src = Rng.bytes rng n in
      let dst = Rng.bytes rng n in
      Gf65536.mul_slice_set c src dst;
      let ok = ref true in
      for i = 0 to half_len - 1 do
        if get16_le dst i <> Gf65536.mul c (get16_le src i) then ok := false
      done;
      !ok)

let prop_gf8_mul_slice_matches_scalar =
  QCheck.Test.make ~name:"gf8 table slice = scalar product" ~count:300
    QCheck.(triple (int_range 0 255) (int_range 0 43) small_int)
    (fun (c, n, seed) ->
      let rng = Rng.create (Int64.of_int ((seed * 256) + c)) in
      let src = Rng.bytes rng n in
      let dst = Rng.bytes rng n in
      let orig = Bytes.copy dst in
      Gf256.mul_slice c src dst;
      let ok = ref true in
      for i = 0 to n - 1 do
        let expect =
          Char.code (Bytes.get orig i)
          lxor Gf256.mul c (Char.code (Bytes.get src i))
        in
        if Char.code (Bytes.get dst i) <> expect then ok := false
      done;
      !ok)

let test_mul_slice_aliasing () =
  (* src == dst: each symbol is read before its write, so the result is
     s xor c*s symbol-wise. Guards against a future kernel rewrite
     (e.g. wider blocking) silently changing aliasing behavior. *)
  let rng = Rng.create 22L in
  let b = Rng.bytes rng 20 in
  let orig = Bytes.copy b in
  Gf65536.mul_slice 0x2f19 b b;
  for i = 0 to 9 do
    let s = get16_le orig i in
    check_int
      (Printf.sprintf "gf16 aliased symbol %d" i)
      (s lxor Gf65536.mul 0x2f19 s)
      (get16_le b i)
  done;
  let a = Rng.bytes rng 13 in
  let orig = Bytes.copy a in
  Gf256.mul_slice 0x8e a a;
  for i = 0 to 12 do
    let s = Char.code (Bytes.get orig i) in
    check_int
      (Printf.sprintf "gf8 aliased byte %d" i)
      (s lxor Gf256.mul 0x8e s)
      (Char.code (Bytes.get a i))
  done

(* mul_row vs a scalar reference sum, with coefficients drawn to hit
   the 0-skip, 1-XOR and table paths, including all-zero rows and a
   zero leading run (the first-nonzero-writes-dst optimization). *)
let prop_gf16_mul_row_matches_scalar =
  QCheck.Test.make ~name:"gf16 mul_row = scalar row sum" ~count:150
    QCheck.(triple (int_range 1 6) (int_range 0 9) small_int)
    (fun (k, half_len, seed) ->
      let n = 2 * half_len in
      let rng = Rng.create (Int64.of_int ((seed * 7) + k)) in
      let coeffs =
        Array.init k (fun _ ->
            match Rng.int rng 4 with
            | 0 -> 0
            | 1 -> 1
            | _ -> Rng.int rng 65536)
      in
      let srcs = Array.init k (fun _ -> Rng.bytes rng n) in
      let dst = Rng.bytes rng n in
      Gf65536.mul_row ~coeffs srcs dst;
      let ok = ref true in
      for i = 0 to half_len - 1 do
        let expect = ref 0 in
        for j = 0 to k - 1 do
          expect := !expect lxor Gf65536.mul coeffs.(j) (get16_le srcs.(j) i)
        done;
        if get16_le dst i <> !expect then ok := false
      done;
      !ok)

let prop_gf8_mul_row_matches_scalar =
  QCheck.Test.make ~name:"gf8 mul_row = scalar row sum" ~count:150
    QCheck.(triple (int_range 1 6) (int_range 0 19) small_int)
    (fun (k, n, seed) ->
      let rng = Rng.create (Int64.of_int ((seed * 11) + k)) in
      let coeffs =
        Array.init k (fun _ ->
            match Rng.int rng 4 with
            | 0 -> 0
            | 1 -> 1
            | _ -> Rng.int rng 256)
      in
      let srcs = Array.init k (fun _ -> Rng.bytes rng n) in
      let dst = Rng.bytes rng n in
      Gf256.mul_row ~coeffs srcs dst;
      let ok = ref true in
      for i = 0 to n - 1 do
        let expect = ref 0 in
        for j = 0 to k - 1 do
          expect :=
            !expect lxor Gf256.mul coeffs.(j) (Char.code (Bytes.get srcs.(j) i))
        done;
        if Char.code (Bytes.get dst i) <> !expect then ok := false
      done;
      !ok)

let test_mul_slice_matches_scalar () =
  let rng = Rng.create 4L in
  let src = Rng.bytes rng 64 in
  let dst = Rng.bytes rng 64 in
  let dst_copy = Bytes.copy dst in
  let c = 0x57 in
  Gf256.mul_slice c src dst;
  for i = 0 to 63 do
    let expected =
      Gf256.add (Char.code (Bytes.get dst_copy i))
        (Gf256.mul c (Char.code (Bytes.get src i)))
    in
    check_int (Printf.sprintf "slice byte %d" i) expected
      (Char.code (Bytes.get dst i))
  done

let test_mul_slice_set_gf16_matches_scalar () =
  let rng = Rng.create 5L in
  let src = Rng.bytes rng 32 in
  let dst = Bytes.create 32 in
  let c = 0x1234 in
  Gf65536.mul_slice_set c src dst;
  for i = 0 to 15 do
    let s =
      Char.code (Bytes.get src (2 * i))
      lor (Char.code (Bytes.get src ((2 * i) + 1)) lsl 8)
    in
    let d =
      Char.code (Bytes.get dst (2 * i))
      lor (Char.code (Bytes.get dst ((2 * i) + 1)) lsl 8)
    in
    check_int (Printf.sprintf "symbol %d" i) (Gf65536.mul c s) d
  done

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)
(* ------------------------------------------------------------------ *)

module M8 = Matrix.Make (Field.Gf8)

let test_matrix_identity_mul () =
  let id = M8.identity 4 in
  let m = M8.create 4 4 in
  let rng = Rng.create 6L in
  for r = 0 to 3 do
    for c = 0 to 3 do
      M8.set m r c (Rng.int rng 256)
    done
  done;
  check_bool "I * m = m" true (M8.equal (M8.mul id m) m);
  check_bool "m * I = m" true (M8.equal (M8.mul m id) m)

let test_matrix_inverse () =
  let rng = Rng.create 7L in
  let tried = ref 0 and inverted = ref 0 in
  while !inverted < 20 && !tried < 200 do
    incr tried;
    let n = 1 + Rng.int rng 8 in
    let m = M8.create n n in
    for r = 0 to n - 1 do
      for c = 0 to n - 1 do
        M8.set m r c (Rng.int rng 256)
      done
    done;
    match M8.invert m with
    | None -> () (* singular draw; skip *)
    | Some mi ->
        incr inverted;
        check_bool "m * m^-1 = I" true (M8.equal (M8.mul m mi) (M8.identity n))
  done;
  check_bool "inverted a reasonable sample" true (!inverted >= 20)

let test_matrix_singular () =
  let m = M8.create 2 2 in
  (* Two identical rows. *)
  M8.set m 0 0 3;
  M8.set m 0 1 5;
  M8.set m 1 0 3;
  M8.set m 1 1 5;
  check_bool "singular detected" true (M8.invert m = None);
  let z = M8.create 3 3 in
  check_bool "zero matrix singular" true (M8.invert z = None)

let test_vandermonde_submatrix_invertible () =
  (* The RS guarantee: any k rows of a Vandermonde matrix are
     independent. *)
  let vm = M8.vandermonde 12 5 in
  let rng = Rng.create 8L in
  for _ = 1 to 30 do
    let rows = Array.init 12 Fun.id in
    Rng.shuffle rng rows;
    let sub = M8.select_rows vm (Array.sub rows 0 5) in
    check_bool "5 random vandermonde rows invertible" true (M8.invert sub <> None)
  done

let test_matrix_bounds () =
  let m = M8.create 2 3 in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Matrix: index out of bounds") (fun () ->
      ignore (M8.get m 2 0));
  Alcotest.check_raises "set non-element"
    (Invalid_argument "Matrix.set: not a field element") (fun () ->
      M8.set m 0 0 256);
  Alcotest.check_raises "mul mismatch"
    (Invalid_argument "Matrix.mul: dimension mismatch") (fun () ->
      ignore (M8.mul m m))

(* ------------------------------------------------------------------ *)
(* Reed-Solomon                                                        *)
(* ------------------------------------------------------------------ *)

module Rs8 = Reed_solomon.Make (Field.Gf8)
module Rs16 = Reed_solomon.Make (Field.Gf16)

let random_shards rng ~n ~size = Array.init n (fun _ -> Rng.bytes rng size)

let test_rs_systematic () =
  let rs = Rs8.create ~data:4 ~parity:3 in
  check_int "data" 4 (Rs8.data rs);
  check_int "parity" 3 (Rs8.parity rs);
  check_int "total" 7 (Rs8.total rs);
  (* Systematic code: encoding rows 0..data-1 are the identity. *)
  for i = 0 to 3 do
    let row = Rs8.encoding_row rs i in
    Array.iteri
      (fun j v -> check_int (Printf.sprintf "row %d col %d" i j) (if i = j then 1 else 0) v)
      row
  done

let test_rs_roundtrip_no_loss () =
  let rng = Rng.create 10L in
  let rs = Rs8.create ~data:5 ~parity:3 in
  let data = random_shards rng ~n:5 ~size:128 in
  let parity = Rs8.encode rs data in
  check_int "parity count" 3 (Array.length parity);
  let slots =
    Array.append (Array.map Option.some data) (Array.map Option.some parity)
  in
  match Rs8.reconstruct rs slots with
  | Error e -> Alcotest.fail e
  | Ok out ->
      Array.iteri
        (fun i shard ->
          check_bool (Printf.sprintf "shard %d" i) true (Bytes.equal shard data.(i)))
        out

let erase_pattern rng total ~keep slots =
  (* Keep exactly [keep] random shards present. *)
  let idx = Array.init total Fun.id in
  Rng.shuffle rng idx;
  let kept = Array.sub idx 0 keep in
  let present = Array.make total false in
  Array.iter (fun i -> present.(i) <- true) kept;
  Array.mapi (fun i s -> if present.(i) then s else None) slots

let test_rs_reconstruct_under_erasures () =
  let rng = Rng.create 11L in
  List.iter
    (fun (d, p) ->
      let rs = Rs8.create ~data:d ~parity:p in
      let data = random_shards rng ~n:d ~size:64 in
      let parity = Rs8.encode rs data in
      let slots =
        Array.append (Array.map Option.some data) (Array.map Option.some parity)
      in
      for _ = 1 to 10 do
        let erased = erase_pattern rng (d + p) ~keep:d slots in
        match Rs8.reconstruct rs erased with
        | Error e -> Alcotest.fail e
        | Ok out ->
            Array.iteri
              (fun i shard ->
                check_bool
                  (Printf.sprintf "(%d,%d) shard %d" d p i)
                  true (Bytes.equal shard data.(i)))
              out
      done)
    [ (1, 1); (2, 2); (4, 3); (13, 15); (10, 10); (20, 5) ]

let test_rs_paper_case_study () =
  (* Section IV-B: n_total = 28, n_parity = 15, n_data = 13. Any 13 of
     the 28 chunks rebuild the entry. *)
  let rng = Rng.create 12L in
  let rs = Rs8.create ~data:13 ~parity:15 in
  let data = random_shards rng ~n:13 ~size:100 in
  let parity = Rs8.encode rs data in
  let slots =
    Array.append (Array.map Option.some data) (Array.map Option.some parity)
  in
  for _ = 1 to 20 do
    let erased = erase_pattern rng 28 ~keep:13 slots in
    match Rs8.reconstruct rs erased with
    | Error e -> Alcotest.fail e
    | Ok out ->
        Array.iteri
          (fun i shard -> check_bool "rebuilt" true (Bytes.equal shard data.(i)))
          out
  done

let test_rs_insufficient_shards () =
  let rng = Rng.create 13L in
  let rs = Rs8.create ~data:4 ~parity:2 in
  let data = random_shards rng ~n:4 ~size:32 in
  let parity = Rs8.encode rs data in
  let slots =
    Array.append (Array.map Option.some data) (Array.map Option.some parity)
  in
  let erased = erase_pattern rng 6 ~keep:3 slots in
  (match Rs8.reconstruct rs erased with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reconstruct should fail with only 3 of 4");
  Alcotest.check_raises "too many shards for gf8"
    (Invalid_argument "Reed_solomon.create: too many shards for the field")
    (fun () -> ignore (Rs8.create ~data:200 ~parity:60))

let test_rs_corrupt_shard_gives_wrong_result () =
  (* The documented hazard of RS: corrupted inputs decode to garbage,
     motivating the Merkle bucket layer above (paper IV-C). *)
  let rng = Rng.create 14L in
  let rs = Rs8.create ~data:4 ~parity:2 in
  let data = random_shards rng ~n:4 ~size:32 in
  let parity = Rs8.encode rs data in
  let corrupted = Bytes.copy parity.(0) in
  Bytes.set corrupted 0
    (Char.chr (Char.code (Bytes.get corrupted 0) lxor 0xff));
  (* Drop data shard 0 and hand in the corrupted parity instead. *)
  let slots =
    [|
      None;
      Some data.(1);
      Some data.(2);
      Some data.(3);
      Some corrupted;
      Some parity.(1);
    |]
  in
  match Rs8.reconstruct rs slots with
  | Error _ -> Alcotest.fail "decode should succeed (but be wrong)"
  | Ok out ->
      check_bool "corrupted input yields wrong shard" false
        (Bytes.equal out.(0) data.(0))

let test_rs_gf16_large_shard_count () =
  (* Beyond GF(2^8): 300 data + 100 parity shards. This is the regime
     that forced the paper off liberasurecode. *)
  let rng = Rng.create 15L in
  let rs = Rs16.create ~data:300 ~parity:100 in
  let data = random_shards rng ~n:300 ~size:16 in
  let parity = Rs16.encode rs data in
  check_int "parity count" 100 (Array.length parity);
  let slots =
    Array.append (Array.map Option.some data) (Array.map Option.some parity)
  in
  let erased = erase_pattern rng 400 ~keep:300 slots in
  match Rs16.reconstruct rs erased with
  | Error e -> Alcotest.fail e
  | Ok out ->
      let ok = ref true in
      Array.iteri (fun i s -> if not (Bytes.equal s data.(i)) then ok := false) out;
      check_bool "all 300 shards recovered" true !ok

let prop_rs_roundtrip =
  QCheck.Test.make ~name:"rs reconstructs from any data-sized subset" ~count:40
    QCheck.(
      triple (int_range 1 10) (int_range 0 10) (int_range 1 64))
    (fun (d, p, size) ->
      let rng = Rng.create (Int64.of_int ((d * 1000) + (p * 10) + size)) in
      let rs = Rs8.create ~data:d ~parity:p in
      let data = random_shards rng ~n:d ~size in
      let parity = Rs8.encode rs data in
      let slots =
        Array.append (Array.map Option.some data) (Array.map Option.some parity)
      in
      let erased = erase_pattern rng (d + p) ~keep:d slots in
      match Rs8.reconstruct rs erased with
      | Error _ -> false
      | Ok out ->
          Array.for_all2 (fun a b -> Bytes.equal a b) out data)

let prop_cross_field_reconstruct =
  (* For geometries valid in both fields, GF(2^8) and GF(2^16) codecs
     must both rebuild the original data after every data shard is
     dropped and only parity survives — a differential check that the
     split-table gf16 kernels agree with the byte-table gf8 ones at the
     codec level, not just per slice. *)
  QCheck.Test.make ~name:"gf8 and gf16 both rebuild from parity alone" ~count:25
    QCheck.(pair (int_range 1 8) small_int)
    (fun (d, seed) ->
      let p = d in
      let rng = Rng.create (Int64.of_int ((seed * 17) + d)) in
      let data = random_shards rng ~n:d ~size:32 in
      let parity_slots parity =
        Array.append (Array.make d None) (Array.map Option.some parity)
      in
      let ok8 =
        let rs = Rs8.create ~data:d ~parity:p in
        match Rs8.reconstruct rs (parity_slots (Rs8.encode rs data)) with
        | Error _ -> false
        | Ok out -> Array.for_all2 Bytes.equal out data
      in
      let ok16 =
        let rs = Rs16.create ~data:d ~parity:p in
        match Rs16.reconstruct rs (parity_slots (Rs16.encode rs data)) with
        | Error _ -> false
        | Ok out -> Array.for_all2 Bytes.equal out data
      in
      ok8 && ok16)

(* ------------------------------------------------------------------ *)
(* Erasure (entry-level codec)                                         *)
(* ------------------------------------------------------------------ *)

let test_erasure_field_selection () =
  check_bool "small uses gf8" true (Erasure.field_for ~total:255 = Erasure.Gf8);
  check_bool "large uses gf16" true (Erasure.field_for ~total:256 = Erasure.Gf16);
  check_bool "280 chunks (40x7 LCM) uses gf16" true
    (Erasure.field_for ~total:280 = Erasure.Gf16);
  Alcotest.check_raises "too many"
    (Invalid_argument "Erasure.field_for: more than 65535 shards") (fun () ->
      ignore (Erasure.field_for ~total:70000))

let test_erasure_roundtrip_exact () =
  let entry = "the quick brown fox jumps over the lazy dog" in
  let chunks = Erasure.encode ~data:13 ~parity:15 entry in
  check_int "28 chunks" 28 (Array.length chunks);
  let all = Array.to_list (Array.mapi (fun i c -> (i, c)) chunks) in
  (match Erasure.decode ~data:13 ~parity:15 all with
  | Ok e -> Alcotest.(check string) "identity" entry e
  | Error e -> Alcotest.fail e);
  (* Now from a minimal subset: the last 13 chunks only. *)
  let subset = List.filteri (fun i _ -> i >= 15) all in
  match Erasure.decode ~data:13 ~parity:15 subset with
  | Ok e -> Alcotest.(check string) "from any 13" entry e
  | Error e -> Alcotest.fail e

let test_erasure_empty_entry () =
  let chunks = Erasure.encode ~data:3 ~parity:2 "" in
  let all = Array.to_list (Array.mapi (fun i c -> (i, c)) chunks) in
  match Erasure.decode ~data:3 ~parity:2 all with
  | Ok e -> Alcotest.(check string) "empty survives" "" e
  | Error e -> Alcotest.fail e

let test_erasure_duplicate_rejected () =
  let chunks = Erasure.encode ~data:2 ~parity:1 "abc" in
  match
    Erasure.decode ~data:2 ~parity:1 [ (0, chunks.(0)); (0, chunks.(0)) ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate index must be rejected"

let test_erasure_chunk_size_uniform () =
  let entry = String.make 1000 'z' in
  let chunks = Erasure.encode ~data:7 ~parity:6 entry in
  let size = String.length chunks.(0) in
  check_int "declared size" size (Erasure.chunk_size ~data:7 ~parity:6 ~entry_len:1000);
  Array.iter (fun c -> check_int "uniform" size (String.length c)) chunks;
  (* Total transferred = 13 * chunk; redundancy factor near 13/7. *)
  check_bool "chunks smaller than entry" true (size < 1000)

(* [chunk_size] is arithmetic; the chunks [encode] produces, and the
   codec it used to ask, are the reference. The grid spans both fields
   (totals up to 430 shards) and lengths around the 8-byte frame
   header; bad geometries must raise what building the codec raises. *)
let test_erasure_chunk_size_arithmetic () =
  let result f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
  let codec_size ~data ~parity =
    match Erasure.field_for ~total:(data + parity) with
    | Erasure.Gf8 -> Rs8.shard_size_for (Rs8.create ~data ~parity)
    | Erasure.Gf16 -> Rs16.shard_size_for (Rs16.create ~data ~parity)
  in
  let fields = ref [] in
  List.iter
    (fun (data, parity) ->
      fields := Erasure.field_for ~total:(data + parity) :: !fields;
      let codec_size = codec_size ~data ~parity in
      List.iter
        (fun entry_len ->
          let what = Printf.sprintf "%d+%d, %d bytes" data parity entry_len in
          let size = Erasure.chunk_size ~data ~parity ~entry_len in
          if entry_len >= 0 then
            check_int what
              (String.length (Erasure.encode ~data ~parity (String.make entry_len 'e')).(0))
              size;
          check_bool (what ^ " = codec") true
            (result (fun () -> codec_size (entry_len + 8)) = Ok size))
        [ -8; -1; 0; 1; 7; 8; 9; 255; 1000; 4099 ])
    (List.concat_map
       (fun data -> List.map (fun parity -> (data, parity)) [ 0; 1; 6; 130; 300 ])
       [ 1; 2; 7; 60; 130 ]);
  check_bool "both fields covered" true
    (List.mem Erasure.Gf8 !fields && List.mem Erasure.Gf16 !fields);
  List.iter
    (fun (data, parity, entry_len) ->
      let what = Printf.sprintf "%d+%d, %d bytes raises" data parity entry_len in
      let got = result (fun () -> Erasure.chunk_size ~data ~parity ~entry_len) in
      let want =
        if entry_len < -8 then result (fun () -> codec_size ~data ~parity (entry_len + 8))
        else result (fun () -> Array.length (Erasure.encode ~data ~parity "x"))
      in
      check_bool (what ^ " as before") true (Result.is_error got && got = want))
    [ (0, 0, 10); (0, 5, 10); (-1, 3, 10); (5, -1, 10); (-3, 0, 10); (70_000, 0, 10);
      (60_000, 6_000, 10); (0, 300, 10); (7, 6, -9); (7, 300, -100) ]

let test_erasure_gf16_roundtrip () =
  (* data+parity > 255 forces the GF(2^16) path end-to-end. *)
  let entry = String.init 5000 (fun i -> Char.chr (i mod 251)) in
  let data = 140 and parity = 140 in
  let chunks = Erasure.encode ~data ~parity entry in
  check_int "280 chunks" 280 (Array.length chunks);
  let subset =
    Array.to_list (Array.mapi (fun i c -> (i, c)) chunks)
    |> List.filteri (fun i _ -> i mod 2 = 0)
  in
  check_int "half the chunks" 140 (List.length subset);
  match Erasure.decode ~data ~parity subset with
  | Ok e -> Alcotest.(check string) "gf16 roundtrip" entry e
  | Error e -> Alcotest.fail e

let prop_erasure_corruption_changes_output =
  (* Feeding one flipped chunk either fails decoding or yields a
     different entry — never silently the right one. This is the hazard
     that motivates certificate validation above the codec. *)
  QCheck.Test.make ~name:"corrupted chunk never yields the entry silently" ~count:60
    QCheck.(triple (int_range 2 10) (int_range 1 8) small_printable_string)
    (fun (data, parity, entry) ->
      QCheck.assume (String.length entry > 0);
      let chunks = Erasure.encode ~data ~parity entry in
      (* Corrupt chunk 0 and decode from a set that includes it. *)
      let corrupted =
        String.mapi
          (fun i c -> if i = 0 then Char.chr (Char.code c lxor 0x01) else c)
          chunks.(0)
      in
      let subset =
        (0, corrupted)
        :: List.init (data - 1) (fun k -> (k + 1, chunks.(k + 1)))
      in
      match Erasure.decode ~data ~parity subset with
      | Error _ -> true
      | Ok e -> not (String.equal e entry))

let prop_erasure_roundtrip =
  QCheck.Test.make ~name:"erasure roundtrips any entry from any quorum" ~count:40
    QCheck.(triple string (int_range 1 12) (int_range 0 12))
    (fun (entry, data, parity) ->
      let chunks = Erasure.encode ~data ~parity entry in
      let rng = Rng.create (Int64.of_int (String.length entry + data + parity)) in
      let idx = Array.init (data + parity) Fun.id in
      Rng.shuffle rng idx;
      let subset =
        Array.to_list (Array.sub idx 0 data)
        |> List.map (fun i -> (i, chunks.(i)))
      in
      match Erasure.decode ~data ~parity subset with
      | Ok e -> String.equal e entry
      | Error _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "massbft_codec"
    [
      ( "fields",
        [
          Alcotest.test_case "gf256 laws" `Quick test_gf256_laws;
          Alcotest.test_case "gf65536 laws" `Quick test_gf65536_laws;
          Alcotest.test_case "gf256 exhaustive inverses" `Quick test_gf256_exhaustive_inverse;
          Alcotest.test_case "division by zero" `Quick test_gf_zero_division;
          Alcotest.test_case "generator order" `Quick test_gf256_generator_order;
          Alcotest.test_case "log/exp inverse" `Quick test_gf_log_exp_inverse;
          Alcotest.test_case "exp of negative exponents" `Quick test_exp_negative_exponents;
          Alcotest.test_case "out-of-field coefficients rejected" `Quick test_slice_coefficient_validation;
          Alcotest.test_case "c=0 / c=1 fast paths" `Quick test_slice_fast_paths;
          Alcotest.test_case "odd gf16 lengths rejected" `Quick test_gf16_odd_length_rejected;
          Alcotest.test_case "aliased src=dst slices" `Quick test_mul_slice_aliasing;
          Alcotest.test_case "mul_slice scalar-equivalence" `Quick test_mul_slice_matches_scalar;
          Alcotest.test_case "gf16 mul_slice_set" `Quick test_mul_slice_set_gf16_matches_scalar;
          qt prop_gf16_mul_slice_matches_scalar;
          qt prop_gf16_mul_slice_set_matches_scalar;
          qt prop_gf8_mul_slice_matches_scalar;
          qt prop_gf16_mul_row_matches_scalar;
          qt prop_gf8_mul_row_matches_scalar;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "identity" `Quick test_matrix_identity_mul;
          Alcotest.test_case "inverse" `Quick test_matrix_inverse;
          Alcotest.test_case "singular detection" `Quick test_matrix_singular;
          Alcotest.test_case "vandermonde rows independent" `Quick test_vandermonde_submatrix_invertible;
          Alcotest.test_case "bounds and errors" `Quick test_matrix_bounds;
        ] );
      ( "reed_solomon",
        [
          Alcotest.test_case "systematic layout" `Quick test_rs_systematic;
          Alcotest.test_case "roundtrip, no loss" `Quick test_rs_roundtrip_no_loss;
          Alcotest.test_case "roundtrip under erasures" `Quick test_rs_reconstruct_under_erasures;
          Alcotest.test_case "paper IV-B case study (13+15)" `Quick test_rs_paper_case_study;
          Alcotest.test_case "insufficient shards" `Quick test_rs_insufficient_shards;
          Alcotest.test_case "corruption yields wrong data" `Quick test_rs_corrupt_shard_gives_wrong_result;
          Alcotest.test_case "gf16 at 400 shards" `Slow test_rs_gf16_large_shard_count;
          qt prop_rs_roundtrip;
          qt prop_cross_field_reconstruct;
        ] );
      ( "erasure",
        [
          Alcotest.test_case "field selection" `Quick test_erasure_field_selection;
          Alcotest.test_case "roundtrip exact" `Quick test_erasure_roundtrip_exact;
          Alcotest.test_case "empty entry" `Quick test_erasure_empty_entry;
          Alcotest.test_case "duplicate index rejected" `Quick test_erasure_duplicate_rejected;
          Alcotest.test_case "uniform chunk size" `Quick test_erasure_chunk_size_uniform;
          Alcotest.test_case "chunk size by arithmetic" `Quick test_erasure_chunk_size_arithmetic;
          Alcotest.test_case "gf16 roundtrip (280 chunks)" `Slow test_erasure_gf16_roundtrip;
          qt prop_erasure_roundtrip;
          qt prop_erasure_corruption_changes_output;
        ] );
    ]
