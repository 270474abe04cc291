(* Unit and property tests for the massbft_util substrate. *)

open Massbft_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Intmath                                                             *)
(* ------------------------------------------------------------------ *)

let test_gcd_lcm () =
  check_int "gcd 12 18" 6 (Intmath.gcd 12 18);
  check_int "gcd 7 13" 1 (Intmath.gcd 7 13);
  check_int "gcd 0 5" 5 (Intmath.gcd 0 5);
  check_int "gcd 5 0" 5 (Intmath.gcd 5 0);
  check_int "gcd 0 0" 0 (Intmath.gcd 0 0);
  check_int "lcm 4 7 (paper case study)" 28 (Intmath.lcm 4 7);
  check_int "lcm 4 6" 12 (Intmath.lcm 4 6);
  check_int "lcm 7 7" 7 (Intmath.lcm 7 7);
  check_int "lcm 0 9" 0 (Intmath.lcm 0 9)

let test_cdiv () =
  check_int "cdiv exact" 3 (Intmath.cdiv 9 3);
  check_int "cdiv round up" 4 (Intmath.cdiv 10 3);
  check_int "cdiv zero" 0 (Intmath.cdiv 0 5);
  Alcotest.check_raises "cdiv by zero" (Invalid_argument "Intmath.cdiv: non-positive divisor")
    (fun () -> ignore (Intmath.cdiv 1 0))

let test_quorums () =
  (* n >= 3f + 1: the PBFT bound from the paper's threat model. *)
  check_int "f(4)" 1 (Intmath.pbft_f 4);
  check_int "f(7)" 2 (Intmath.pbft_f 7);
  check_int "f(40)" 13 (Intmath.pbft_f 40);
  check_int "quorum(4)" 3 (Intmath.pbft_quorum 4);
  check_int "quorum(7)" 5 (Intmath.pbft_quorum 7);
  (* n_g >= 2f_g + 1: the group-level crash bound. *)
  check_int "fg(3)" 1 (Intmath.raft_f 3);
  check_int "fg(7)" 3 (Intmath.raft_f 7);
  check_int "raft quorum(3)" 2 (Intmath.raft_quorum 3)

let test_log2 () =
  check_int "log2_ceil 1" 0 (Intmath.log2_ceil 1);
  check_int "log2_ceil 2" 1 (Intmath.log2_ceil 2);
  check_int "log2_ceil 3" 2 (Intmath.log2_ceil 3);
  check_int "log2_ceil 1024" 10 (Intmath.log2_ceil 1024)

let prop_lcm_divisible =
  QCheck.Test.make ~name:"lcm is a common multiple"
    QCheck.(pair (int_range 1 500) (int_range 1 500))
    (fun (a, b) ->
      let l = Intmath.lcm a b in
      l mod a = 0 && l mod b = 0 && l <= a * b)

let prop_gcd_lcm_product =
  QCheck.Test.make ~name:"gcd * lcm = a * b"
    QCheck.(pair (int_range 1 1000) (int_range 1 1000))
    (fun (a, b) -> Intmath.gcd a b * Intmath.lcm a b = a * b)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  check_bool "different seeds diverge" true !differs

let test_rng_copy () =
  let a = Rng.create 7L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let child = Rng.split parent in
  (* The child stream should not equal the parent's continuation. *)
  let same = ref true in
  for _ = 1 to 8 do
    if Rng.next_int64 parent <> Rng.next_int64 child then same := false
  done;
  check_bool "split streams diverge" false !same

let test_rng_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "int in bounds" true (v >= 0 && v < 10);
    let f = Rng.float rng 2.5 in
    check_bool "float in bounds" true (f >= 0.0 && f < 2.5);
    let r = Rng.int_in rng ~lo:5 ~hi:7 in
    check_bool "int_in in bounds" true (r >= 5 && r <= 7)
  done

let test_rng_uniformity () =
  (* Chi-square-ish sanity: all 10 cells populated within 3x of mean. *)
  let rng = Rng.create 99L in
  let cells = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    cells.(v) <- cells.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "cell %d populated sanely (%d)" i c)
        true
        (c > n / 30 && c < n / 3))
    cells

let test_rng_exponential_mean () =
  let rng = Rng.create 11L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool
    (Printf.sprintf "exponential mean ~4 (got %f)" mean)
    true
    (mean > 3.8 && mean < 4.2)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle permutes" (Array.init 50 Fun.id) sorted

let test_rng_bytes () =
  let rng = Rng.create 13L in
  let b = Rng.bytes rng 100 in
  check_int "length" 100 (Bytes.length b);
  let b2 = Rng.bytes rng 100 in
  check_bool "two draws differ" false (Bytes.equal b b2)

(* The first eight draws for two seeds, recorded from the boxed-record
   generator (test/rng_oracle.ml). Every golden rests on this stream. *)
let test_rng_known_answers () =
  let expect seed words =
    let r = Rng.create seed in
    List.iteri
      (fun i w ->
        Alcotest.(check int64) (Printf.sprintf "seed %Ld draw %d" seed i) w
          (Rng.next_int64 r))
      words
  in
  expect 0L
    [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L;
      0x6aa594f1262d2d2cL; 0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL;
      0x6c160deed2f54c98L; 0x8920ad648fc30a3fL ];
  expect 42L
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
      0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L; 0xc50da53101795238L;
      0xb82154855a65ddb2L; 0xd99a2743ebe60087L ]

type rng_op =
  | Next
  | Int of int
  | Int_in of int * int
  | Float of float
  | Bool
  | Copy
  | Split

let print_rng_op = function
  | Next -> "next_int64"
  | Int b -> Printf.sprintf "int %d" b
  | Int_in (lo, hi) -> Printf.sprintf "int_in %d..%d" lo hi
  | Float b -> Printf.sprintf "float %h" b
  | Bool -> "bool"
  | Copy -> "copy"
  | Split -> "split"

(* Bounds near max_int make the rejection loop redraw often. *)
let gen_rng_op =
  QCheck.Gen.(
    frequency
      [
        (3, return Next);
        ( 3,
          map
            (fun b -> Int b)
            (oneof
               [ int_range 1 1000; int_range 1 max_int;
                 map (fun k -> max_int - k) (int_range 0 1000) ]) );
        ( 2,
          map2
            (fun lo span -> Int_in (lo, lo + span))
            (int_range (-1_000_000) 1_000_000)
            (int_range 0 1_000_000) );
        (2, map (fun b -> Float b) (float_range 1e-3 1e6));
        (2, return Bool);
        (1, return Copy);
        (1, return Split);
      ])

(* After [copy] or [split] both sides go on with the new generator; the
   old one draws once first, so a copy that aliased its source, or a
   split that did not advance it, shows as a mismatch. *)
let prop_rng_oracle =
  QCheck.Test.make ~count:300 ~name:"Rng = boxed-record oracle, draw for draw"
    QCheck.(
      pair int64
        (make
           ~print:(fun ops -> String.concat "; " (List.map print_rng_op ops))
           Gen.(list_size (int_range 1 200) gen_rng_op)))
    (fun (seed, ops) ->
      let module O = Rng_oracle in
      let rec go r o = function
        | [] -> Rng.next_int64 r = O.next_int64 o
        | op :: rest ->
            let same, r, o =
              match op with
              | Next -> (Rng.next_int64 r = O.next_int64 o, r, o)
              | Int b -> (Rng.int r b = O.int o b, r, o)
              | Int_in (lo, hi) -> (Rng.int_in r ~lo ~hi = O.int_in o ~lo ~hi, r, o)
              | Float b ->
                  ( Int64.bits_of_float (Rng.float r b)
                    = Int64.bits_of_float (O.float o b),
                    r, o )
              | Bool -> (Rng.bool r = O.bool o, r, o)
              | Copy ->
                  let r' = Rng.copy r and o' = O.copy o in
                  (Rng.next_int64 r = O.next_int64 o, r', o')
              | Split ->
                  let r' = Rng.split r and o' = O.split o in
                  (Rng.next_int64 r = O.next_int64 o, r', o')
            in
            same && go r o rest
      in
      go (Rng.create seed) (O.create seed) ops)

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)
(* ------------------------------------------------------------------ *)

let test_zipf_bounds () =
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Rng.create 21L in
  for _ = 1 to 10_000 do
    let v = Zipf.next z rng in
    check_bool "zipf in range" true (v >= 0 && v < 1000)
  done

let test_zipf_skew () =
  (* With theta = 0.99, item 0 must be drawn far more than the median
     item. *)
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Rng.create 22L in
  let counts = Array.make 1000 0 in
  for _ = 1 to 100_000 do
    let v = Zipf.next z rng in
    counts.(v) <- counts.(v) + 1
  done;
  check_bool
    (Printf.sprintf "head is hot (%d draws)" counts.(0))
    true
    (counts.(0) > 5_000);
  check_bool "tail is cold" true (counts.(900) < counts.(0) / 10)

let test_zipf_scrambled_spread () =
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Rng.create 23L in
  let seen_high = ref false in
  for _ = 1 to 1000 do
    let v = Zipf.scrambled z rng ~hash_seed:77L in
    check_bool "scrambled in range" true (v >= 0 && v < 1000);
    if v > 500 then seen_high := true
  done;
  check_bool "scrambling spreads hot keys" true !seen_high

let test_zipf_invalid () =
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~theta:0.5));
  Alcotest.check_raises "theta = 1"
    (Invalid_argument "Zipf.create: theta must be in [0, 1)") (fun () ->
      ignore (Zipf.create ~n:10 ~theta:1.0))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_int "count" 5 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.Summary.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.Summary.percentile s 100.0)

let test_summary_empty () =
  (* An empty summary has no percentiles: the accessor raises instead
     of fabricating a 0.0 sample, and the _opt variant returns None.
     Only [mean] keeps its documented 0-on-empty. *)
  let s = Stats.Summary.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.Summary.mean s);
  Alcotest.check_raises "p99 of empty raises"
    (Invalid_argument "Stats.Summary.percentile: empty summary") (fun () ->
      ignore (Stats.Summary.percentile s 99.0));
  check_bool "percentile_opt None" true
    (Stats.Summary.percentile_opt s 99.0 = None);
  (* Bad p still raises even on an empty summary. *)
  Alcotest.check_raises "percentile_opt domain"
    (Invalid_argument "Stats.Summary.percentile_opt: p outside [0, 100]")
    (fun () -> ignore (Stats.Summary.percentile_opt s 101.0));
  (* After one add, the percentiles report that sample. *)
  Stats.Summary.add s 7.0;
  check_bool "percentile_opt after add" true
    (Stats.Summary.percentile_opt s 99.0 = Some 7.0)

let test_summary_percentile_after_add () =
  (* percentile sorts lazily; adding after a percentile call must not
     corrupt the ordering. *)
  let s = Stats.Summary.create () in
  Stats.Summary.add s 10.0;
  Stats.Summary.add s 20.0;
  ignore (Stats.Summary.percentile s 50.0);
  Stats.Summary.add s 1.0;
  Alcotest.(check (float 1e-9)) "new min seen" 1.0 (Stats.Summary.percentile s 1.0)

let test_summary_single_sample () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 7.0;
  Alcotest.(check (float 1e-9)) "mean" 7.0 (Stats.Summary.mean s);
  (* Every percentile of a one-sample population is that sample. *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f" p)
        7.0
        (Stats.Summary.percentile s p))
    [ 0.0; 1.0; 50.0; 99.0; 100.0 ]

let test_summary_percentile_domain () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 1.0;
  let raises p =
    match Stats.Summary.percentile s p with
    | _ -> Alcotest.failf "p=%.1f accepted" p
    | exception Invalid_argument _ -> ()
  in
  raises (-0.1);
  raises 100.1

let test_timeseries () =
  let ts = Stats.Timeseries.create ~bucket:1.0 in
  Stats.Timeseries.add ts ~time:0.1 1.0;
  Stats.Timeseries.add ts ~time:0.9 1.0;
  Stats.Timeseries.add ts ~time:1.5 1.0;
  (match Stats.Timeseries.rate_series ts with
  | [ (t0, r0); (t1, r1) ] ->
      Alcotest.(check (float 1e-9)) "bucket 0 start" 0.0 t0;
      Alcotest.(check (float 1e-9)) "bucket 0 rate" 2.0 r0;
      Alcotest.(check (float 1e-9)) "bucket 1 start" 1.0 t1;
      Alcotest.(check (float 1e-9)) "bucket 1 rate" 1.0 r1
  | other -> Alcotest.failf "expected 2 buckets, got %d" (List.length other));
  match Stats.Timeseries.mean_series ts with
  | [ (_, m0); (_, m1) ] ->
      Alcotest.(check (float 1e-9)) "bucket 0 mean" 1.0 m0;
      Alcotest.(check (float 1e-9)) "bucket 1 mean" 1.0 m1
  | _ -> Alcotest.fail "expected 2 buckets"

let test_timeseries_zero_fill () =
  (* Observation-free buckets inside the observed span must appear
     explicitly as 0.0 (a stall looks like a stall, not a gap). *)
  let ts = Stats.Timeseries.create ~bucket:1.0 in
  Stats.Timeseries.add ts ~time:0.5 3.0;
  Stats.Timeseries.add ts ~time:3.5 1.0;
  (match Stats.Timeseries.rate_series ts with
  | [ (t0, r0); (t1, r1); (t2, r2); (t3, r3) ] ->
      Alcotest.(check (float 1e-9)) "bucket 0 start" 0.0 t0;
      Alcotest.(check (float 1e-9)) "bucket 0 rate" 3.0 r0;
      Alcotest.(check (float 1e-9)) "gap bucket 1 start" 1.0 t1;
      Alcotest.(check (float 1e-9)) "gap bucket 1 rate" 0.0 r1;
      Alcotest.(check (float 1e-9)) "gap bucket 2 start" 2.0 t2;
      Alcotest.(check (float 1e-9)) "gap bucket 2 rate" 0.0 r2;
      Alcotest.(check (float 1e-9)) "bucket 3 start" 3.0 t3;
      Alcotest.(check (float 1e-9)) "bucket 3 rate" 1.0 r3
  | other -> Alcotest.failf "expected 4 buckets, got %d" (List.length other));
  (match Stats.Timeseries.mean_series ts with
  | [ (_, m0); (_, m1); (_, m2); (_, m3) ] ->
      Alcotest.(check (float 1e-9)) "bucket 0 mean" 3.0 m0;
      Alcotest.(check (float 1e-9)) "gap means" 0.0 (m1 +. m2);
      Alcotest.(check (float 1e-9)) "bucket 3 mean" 1.0 m3
  | other -> Alcotest.failf "expected 4 buckets, got %d" (List.length other));
  let empty = Stats.Timeseries.create ~bucket:1.0 in
  check_int "empty stays empty" 0
    (List.length (Stats.Timeseries.rate_series empty))

let test_timeseries_empty () =
  let ts = Stats.Timeseries.create ~bucket:1.0 in
  Alcotest.(check int) "rate of empty" 0
    (List.length (Stats.Timeseries.rate_series ts));
  Alcotest.(check int) "mean of empty" 0
    (List.length (Stats.Timeseries.mean_series ts))

let test_timeseries_single_sample () =
  let ts = Stats.Timeseries.create ~bucket:2.0 in
  Stats.Timeseries.add ts ~time:3.0 4.0;
  (match Stats.Timeseries.rate_series ts with
  | [ (t0, r0) ] ->
      Alcotest.(check (float 1e-9)) "bucket start" 2.0 t0;
      Alcotest.(check (float 1e-9)) "rate = sum / bucket" 2.0 r0
  | other -> Alcotest.failf "expected 1 bucket, got %d" (List.length other));
  match Stats.Timeseries.mean_series ts with
  | [ (_, m0) ] -> Alcotest.(check (float 1e-9)) "mean" 4.0 m0
  | other -> Alcotest.failf "expected 1 bucket, got %d" (List.length other)

let test_timeseries_out_of_order () =
  (* Bucketing is by timestamp, not arrival order: adding a late sample
     first must produce the same series. *)
  let ts = Stats.Timeseries.create ~bucket:1.0 in
  Stats.Timeseries.add ts ~time:2.5 1.0;
  Stats.Timeseries.add ts ~time:0.5 3.0;
  match Stats.Timeseries.rate_series ts with
  | [ (t0, r0); (_, r1); (t2, r2) ] ->
      Alcotest.(check (float 1e-9)) "first bucket" 0.0 t0;
      Alcotest.(check (float 1e-9)) "first rate" 3.0 r0;
      Alcotest.(check (float 1e-9)) "gap zero-filled" 0.0 r1;
      Alcotest.(check (float 1e-9)) "last bucket" 2.0 t2;
      Alcotest.(check (float 1e-9)) "last rate" 1.0 r2
  | other -> Alcotest.failf "expected 3 buckets, got %d" (List.length other)

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.add c 10;
  Stats.Counter.add c 32;
  check_int "sum" 42 (Stats.Counter.get c)

(* ------------------------------------------------------------------ *)
(* Hexdump                                                             *)
(* ------------------------------------------------------------------ *)

let test_hex_roundtrip () =
  Alcotest.(check string) "encode" "00ff10" (Hexdump.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hexdump.decode "00ff10");
  Alcotest.(check string) "decode uppercase" "\xab" (Hexdump.decode "AB");
  Alcotest.(check string) "short" "0102" (Hexdump.short ~len:4 "\x01\x02\x03")

let test_hex_invalid () =
  Alcotest.check_raises "odd length"
    (Invalid_argument "Hexdump.decode: odd-length input") (fun () ->
      ignore (Hexdump.decode "abc"));
  Alcotest.check_raises "non-hex"
    (Invalid_argument "Hexdump.decode: non-hex character") (fun () ->
      ignore (Hexdump.decode "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex decode inverts encode" QCheck.string (fun s ->
      Hexdump.decode (Hexdump.encode s) = s)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

module ISet = Set.Make (Int)

type bitset_op = B_add of int | B_remove of int | B_clear

(* Every op on a Bitset and on a Set.Make (Int) model, elements spread
   over several machine words: after each op the two agree on every
   membership in range, the cardinal and the ascending elements. *)
let prop_bitset_model =
  let open QCheck in
  let elt = Gen.(frequency [ (3, int_range 0 70); (1, int_range 0 400) ]) in
  let op =
    Gen.(
      frequency
        [
          (6, map (fun i -> B_add i) elt);
          (3, map (fun i -> B_remove i) (int_range (-2) 400));
          (1, return B_clear);
        ])
  in
  Test.make ~count:300 ~name:"Bitset = Set.Make (Int) model"
    (make
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | B_add i -> "add " ^ string_of_int i
                | B_remove i -> "remove " ^ string_of_int i
                | B_clear -> "clear")
              ops))
       Gen.(list_size (int_range 0 120) op))
    (fun ops ->
      let b = Bitset.create () in
      let model = ref ISet.empty in
      List.for_all
        (fun op ->
          (match op with
          | B_add i ->
              Bitset.add b i;
              model := ISet.add i !model
          | B_remove i ->
              Bitset.remove b i;
              model := ISet.remove i !model
          | B_clear ->
              Bitset.clear b;
              model := ISet.empty);
          Bitset.cardinal b = ISet.cardinal !model
          && Bitset.elements b = ISet.elements !model
          && List.for_all
               (fun i -> Bitset.mem b i = ISet.mem i !model)
               (List.init 410 (fun i -> i - 3)))
        ops)

let test_bitset_edges () =
  let b = Bitset.create () in
  Alcotest.check_raises "negative add"
    (Invalid_argument "Bitset.add: negative element") (fun () -> Bitset.add b (-1));
  (* The top bit of a word is the int's sign bit. *)
  let top = Sys.int_size - 1 in
  List.iter (Bitset.add b) [ top; 0; top + 1; (3 * Sys.int_size) + 5; top ];
  Alcotest.(check (list int))
    "ascending across words" [ 0; top; top + 1; (3 * Sys.int_size) + 5 ]
    (Bitset.elements b);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  check_bool "absent past the last word" false (Bitset.mem b 100_000);
  Bitset.remove b top;
  Bitset.remove b top;
  Alcotest.(check int) "remove is idempotent" 3 (Bitset.cardinal b);
  Bitset.clear b;
  Alcotest.(check (list int)) "cleared" [] (Bitset.elements b)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "massbft_util"
    [
      ( "intmath",
        [
          Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "cdiv" `Quick test_cdiv;
          Alcotest.test_case "quorums" `Quick test_quorums;
          Alcotest.test_case "log2" `Quick test_log2;
          qt prop_lcm_divisible;
          qt prop_gcd_lcm_product;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "bytes" `Quick test_rng_bytes;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          qt prop_rng_oracle;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "scrambled spread" `Quick test_zipf_scrambled_spread;
          Alcotest.test_case "invalid params" `Quick test_zipf_invalid;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary basics" `Quick test_summary_basic;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "percentile then add" `Quick test_summary_percentile_after_add;
          Alcotest.test_case "single sample" `Quick test_summary_single_sample;
          Alcotest.test_case "percentile domain" `Quick
            test_summary_percentile_domain;
          Alcotest.test_case "timeseries buckets" `Quick test_timeseries;
          Alcotest.test_case "timeseries zero fill" `Quick
            test_timeseries_zero_fill;
          Alcotest.test_case "timeseries empty" `Quick test_timeseries_empty;
          Alcotest.test_case "timeseries single sample" `Quick
            test_timeseries_single_sample;
          Alcotest.test_case "timeseries out-of-order add" `Quick
            test_timeseries_out_of_order;
          Alcotest.test_case "counter" `Quick test_counter;
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "invalid input" `Quick test_hex_invalid;
          qt prop_hex_roundtrip;
        ] );
      ( "bitset",
        [ Alcotest.test_case "word edges" `Quick test_bitset_edges; qt prop_bitset_model ] );
    ]
