(* Tests for the workload generators: determinism, mixes, wire sizes,
   key-space bounds, and the semantic content of the transaction
   bodies (exercised against a scratch store). *)

open Massbft_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Minimal executor for a single txn body: reads/writes go straight to a
   hash table; logic aborts discard writes. *)
let run_body store (txn : Txn.t) =
  let buf = Hashtbl.create 8 in
  let reads = ref [] and aborted = ref false in
  let ctx =
    {
      Txn.read =
        (fun k ->
          reads := k :: !reads;
          match Hashtbl.find_opt buf k with
          | Some v -> Some v
          | None -> Hashtbl.find_opt store k);
      write = (fun k v -> Hashtbl.replace buf k v);
      abort = (fun () -> raise Txn.Logic_abort);
    }
  in
  (try txn.Txn.body ctx with Txn.Logic_abort -> aborted := true);
  if not !aborted then Hashtbl.iter (fun k v -> Hashtbl.replace store k v) buf;
  (List.rev !reads, buf, !aborted)

(* ------------------------------------------------------------------ *)
(* Generic generator properties                                        *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  List.iter
    (fun kind ->
      let a = Workload.create ~scale:0.001 kind ~seed:9L in
      let b = Workload.create ~scale:0.001 kind ~seed:9L in
      for _ = 1 to 50 do
        let ta = Workload.next a and tb = Workload.next b in
        Alcotest.(check string)
          (Workload.kind_name kind ^ " labels equal")
          ta.Txn.label tb.Txn.label;
        check_int "ids equal" ta.Txn.id tb.Txn.id;
        check_int "sizes equal" ta.Txn.wire_size tb.Txn.wire_size
      done)
    Workload.all_kinds

let test_ids_unique_and_increasing () =
  let w = Workload.create ~scale:0.01 Workload.Smallbank ~seed:3L in
  for i = 0 to 99 do
    check_int "sequential ids" i (Workload.next w).Txn.id
  done

let test_avg_wire_sizes_match_paper () =
  check_int "YCSB-A 201B" 201 (Workload.avg_wire_size Workload.Ycsb_a);
  check_int "YCSB-B 150B" 150 (Workload.avg_wire_size Workload.Ycsb_b);
  check_int "SmallBank 108B" 108 (Workload.avg_wire_size Workload.Smallbank);
  check_int "TPC-C 232B" 232 (Workload.avg_wire_size Workload.Tpcc)

let test_generated_sizes_track_averages () =
  (* Empirical average wire size of generated YCSB-A txns should be near
     the declared 201 B (50 % at 100 B reads, 50 % at 200 B updates). *)
  let w = Workload.create ~scale:0.001 Workload.Ycsb_a ~seed:4L in
  let n = 4000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + (Workload.next w).Txn.wire_size
  done;
  let avg = float_of_int !total /. float_of_int n in
  check_bool (Printf.sprintf "avg %.1f close to 150..200" avg) true
    (avg > 140.0 && avg < 170.0)

(* ------------------------------------------------------------------ *)
(* YCSB                                                                *)
(* ------------------------------------------------------------------ *)

let test_ycsb_mix_fractions () =
  let count_writes kind n =
    let w = Workload.create ~scale:0.001 kind ~seed:5L in
    let writes = ref 0 in
    for _ = 1 to n do
      if (Workload.next w).Txn.label = "ycsb.update" then incr writes
    done;
    !writes
  in
  let wa = count_writes Workload.Ycsb_a 2000 in
  check_bool (Printf.sprintf "YCSB-A ~50%% writes (%d/2000)" wa) true
    (wa > 850 && wa < 1150);
  let wb = count_writes Workload.Ycsb_b 2000 in
  check_bool (Printf.sprintf "YCSB-B ~5%% writes (%d/2000)" wb) true
    (wb > 40 && wb < 180)

let test_ycsb_zipf_hotspot () =
  (* With theta 0.99 the most popular row must dominate; track write
     keys. *)
  let w = Workload.create ~scale:0.001 Workload.Ycsb_a ~seed:6L in
  let store = Hashtbl.create 64 in
  let key_counts = Hashtbl.create 64 in
  for _ = 1 to 3000 do
    let t = Workload.next w in
    let reads, writes, _ = run_body store t in
    List.iter
      (fun k ->
        Hashtbl.replace key_counts k
          (1 + Option.value ~default:0 (Hashtbl.find_opt key_counts k)))
      reads;
    Hashtbl.iter
      (fun k _ ->
        Hashtbl.replace key_counts k
          (1 + Option.value ~default:0 (Hashtbl.find_opt key_counts k)))
      writes
  done;
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) key_counts 0 in
  check_bool
    (Printf.sprintf "hottest key touched often (%d)" max_count)
    true (max_count > 20)

let test_ycsb_update_writes_100b () =
  let w = Workload.create ~scale:0.001 Workload.Ycsb_a ~seed:7L in
  let store = Hashtbl.create 16 in
  let rec find_update () =
    let t = Workload.next w in
    if t.Txn.label = "ycsb.update" then t else find_update ()
  in
  let t = find_update () in
  let _, writes, _ = run_body store t in
  check_int "one write" 1 (Hashtbl.length writes);
  Hashtbl.iter
    (fun _ v -> check_int "100-byte value" 100 (String.length v))
    writes

(* ------------------------------------------------------------------ *)
(* SmallBank                                                           *)
(* ------------------------------------------------------------------ *)

let test_smallbank_conservation () =
  (* Total money is conserved by transfers (deposits add, writechecks
     subtract; run only sendpayment/amalgamate/balance by filtering). *)
  let sb = Smallbank.create { Smallbank.default with Smallbank.accounts = 10 } ~seed:8L in
  let store = Hashtbl.create 64 in
  (* Preload all 10 accounts with 1000 in each row. *)
  for a = 0 to 9 do
    Hashtbl.replace store (Smallbank.checking_key a) "1000";
    Hashtbl.replace store (Smallbank.savings_key a) "1000"
  done;
  let total () =
    Hashtbl.fold (fun _ v acc -> acc + Txn.int_value v) store 0
  in
  let before = total () in
  let moved = ref 0 in
  for _ = 1 to 500 do
    let t = Smallbank.next sb in
    match t.Txn.label with
    | "sb.sendpayment" | "sb.amalgamate" | "sb.balance" ->
        ignore (run_body store t);
        incr moved
    | _ -> ()
  done;
  check_bool "exercised transfers" true (!moved > 50);
  check_int "money conserved" before (total ())

let test_smallbank_overdraft_aborts () =
  (* SendPayment from an empty account must logic-abort, leaving state
     untouched. *)
  let sb = Smallbank.create { Smallbank.default with Smallbank.accounts = 2 } ~seed:9L in
  let store = Hashtbl.create 8 in
  Hashtbl.replace store (Smallbank.checking_key 0) "0";
  Hashtbl.replace store (Smallbank.checking_key 1) "0";
  let aborts = ref 0 and runs = ref 0 in
  for _ = 1 to 400 do
    let t = Smallbank.next sb in
    if t.Txn.label = "sb.sendpayment" then begin
      incr runs;
      let _, _, aborted = run_body store t in
      if aborted then incr aborts
    end
  done;
  check_bool "saw sendpayments" true (!runs > 20);
  check_int "all overdrafts aborted" !runs !aborts

let test_smallbank_deposit_effect () =
  let sb = Smallbank.create { Smallbank.default with Smallbank.accounts = 2 } ~seed:10L in
  let store = Hashtbl.create 8 in
  let rec find_deposit () =
    let t = Smallbank.next sb in
    if t.Txn.label = "sb.deposit" then t else find_deposit ()
  in
  let t = find_deposit () in
  ignore (run_body store t);
  let sum =
    Txn.int_value (Option.value ~default:"0" (Hashtbl.find_opt store (Smallbank.checking_key 0)))
    + Txn.int_value (Option.value ~default:"0" (Hashtbl.find_opt store (Smallbank.checking_key 1)))
  in
  check_bool "deposit credited some account" true (sum > 0)

let test_smallbank_preload () =
  let init = Smallbank.preload Smallbank.default in
  check_bool "checking row initialized" true
    (init (Smallbank.checking_key 42) = Some "10000");
  check_bool "savings row initialized" true
    (init (Smallbank.savings_key 0) = Some "10000");
  check_bool "foreign key untouched" true (init "ycsb/u1/f1" = None)

(* ------------------------------------------------------------------ *)
(* TPC-C                                                               *)
(* ------------------------------------------------------------------ *)

let small_tpcc =
  {
    Tpcc.default with
    Tpcc.warehouses = 4;
    customers_per_district = 30;
    items = 100;
  }

let preloaded_store () =
  let store = Hashtbl.create 256 in
  (store, fun k ->
    match Hashtbl.find_opt store k with
    | Some v -> Some v
    | None -> Tpcc.preload small_tpcc k)

let run_tpcc store_pair t =
  let store, lookup = store_pair in
  let buf = Hashtbl.create 8 in
  let aborted = ref false in
  let ctx =
    {
      Txn.read =
        (fun k ->
          match Hashtbl.find_opt buf k with Some v -> Some v | None -> lookup k);
      write = (fun k v -> Hashtbl.replace buf k v);
      abort = (fun () -> raise Txn.Logic_abort);
    }
  in
  (try t.Txn.body ctx with Txn.Logic_abort -> aborted := true);
  if not !aborted then Hashtbl.iter (fun k v -> Hashtbl.replace store k v) buf;
  !aborted

let test_tpcc_neworder_advances_oid () =
  let g = Tpcc.create small_tpcc ~seed:11L in
  let sp = preloaded_store () in
  let store, lookup = sp in
  ignore store;
  (* Run 40 NewOrders; the sum of district next_oids must have advanced
     by the number of *committed* orders. *)
  let committed = ref 0 in
  for _ = 1 to 40 do
    let t = Tpcc.next_of g `New_order in
    if not (run_tpcc sp t) then incr committed
  done;
  let advanced = ref 0 in
  for w = 1 to small_tpcc.Tpcc.warehouses do
    for d = 1 to small_tpcc.Tpcc.districts_per_warehouse do
      let v = Txn.int_value (Option.get (lookup (Tpcc.district_next_oid_key ~w ~d))) in
      advanced := !advanced + (v - 1)
    done
  done;
  check_int "next_oid advanced once per committed order" !committed !advanced

let test_tpcc_payment_updates_ytd () =
  let g = Tpcc.create small_tpcc ~seed:12L in
  let sp = preloaded_store () in
  let _, lookup = sp in
  for _ = 1 to 30 do
    ignore (run_tpcc sp (Tpcc.next_of g `Payment))
  done;
  let total_ytd = ref 0 in
  for w = 1 to small_tpcc.Tpcc.warehouses do
    total_ytd :=
      !total_ytd + Txn.int_value (Option.get (lookup (Tpcc.warehouse_ytd_key w)))
  done;
  check_bool "warehouse YTD accumulated" true (!total_ytd > 0)

let test_tpcc_mix_is_half_half () =
  let g = Tpcc.create small_tpcc ~seed:13L in
  let no = ref 0 and pay = ref 0 in
  for _ = 1 to 100 do
    match (Tpcc.next g).Txn.label with
    | "tpcc.neworder" -> incr no
    | "tpcc.payment" -> incr pay
    | other -> Alcotest.failf "unexpected label %s" other
  done;
  check_int "exact 50/50" 50 !no;
  check_int "exact 50/50" 50 !pay

let test_tpcc_rollback_rate () =
  (* ~1% of NewOrders roll back by spec. *)
  let g =
    Tpcc.create { small_tpcc with Tpcc.invalid_item_pct = 20 } ~seed:14L
  in
  let sp = preloaded_store () in
  let aborts = ref 0 in
  for _ = 1 to 300 do
    if run_tpcc sp (Tpcc.next_of g `New_order) then incr aborts
  done;
  check_bool
    (Printf.sprintf "rollbacks near 20%% (%d/300)" !aborts)
    true
    (!aborts > 30 && !aborts < 90)

(* A NewOrder packs each order line into one int, so [create] rejects a
   warehouse or item count whose ids would not fit; at the largest that
   fit, the lines a body writes still name the stock rows it updated. *)
let test_tpcc_packed_line_range () =
  let raises what cfg msg =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (Tpcc.create cfg ~seed:1L))
  in
  raises "2^24 warehouses" { small_tpcc with Tpcc.warehouses = 1 lsl 24 }
    "Tpcc.create: warehouses must be below 2^24";
  raises "2^32 items" { small_tpcc with Tpcc.items = 1 lsl 32 }
    "Tpcc.create: items must be below 2^32";
  let cfg = { small_tpcc with Tpcc.warehouses = (1 lsl 24) - 1; items = (1 lsl 32) - 1 } in
  let g = Tpcc.create cfg ~seed:15L in
  let top_item = ref 0 and top_w = ref 0 in
  for _ = 1 to 50 do
    let writes = Hashtbl.create 64 in
    let ctx =
      {
        Txn.read = (fun _ -> None);
        write = Hashtbl.replace writes;
        abort = (fun () -> ());
      }
    in
    (Tpcc.next_of g `New_order).Txn.body ctx;
    Hashtbl.iter
      (fun k v ->
        if String.starts_with ~prefix:"tpcc/ol/" k then
          Scanf.sscanf v "i=%d;w=%d;q=%d" (fun i w q ->
              check_bool "item in range" true (i >= 1 && i <= cfg.Tpcc.items);
              check_bool "warehouse in range" true (w >= 1 && w <= cfg.Tpcc.warehouses);
              check_bool "quantity in range" true (q >= 1 && q <= 10);
              check_bool "its stock row was written" true
                (Hashtbl.mem writes (Tpcc.stock_qty_key ~w ~i)
                && Hashtbl.mem writes (Tpcc.stock_ytd_key ~w ~i));
              top_item := max !top_item i;
              top_w := max !top_w w))
      writes
  done;
  check_bool "items above 2^31 drawn" true (!top_item >= 1 lsl 31);
  check_bool "warehouses above 2^23 drawn" true (!top_w >= 1 lsl 23)

let test_tpcc_preload_defaults () =
  let init k = Tpcc.preload Tpcc.default k in
  check_bool "district oid starts at 1" true
    (init (Tpcc.district_next_oid_key ~w:1 ~d:1) = Some "1");
  check_bool "stock starts at 100" true
    (init (Tpcc.stock_qty_key ~w:1 ~i:5) = Some "100");
  check_bool "warehouse ytd starts at 0" true
    (init (Tpcc.warehouse_ytd_key 1) = Some "0");
  check_bool "non-tpcc key absent" true (init "sb/c/1" = None)

(* The key and value builders are built by concatenation; these are the
   Printf formats they replaced, which define the bytes. *)
let prop_builders_match_printf =
  let arg = QCheck.(oneof [ small_signed_int; int ]) in
  QCheck.Test.make ~name:"key/value builders = their Printf formats" ~count:1000
    QCheck.(quad arg arg arg arg)
    (fun (a, b, c, d) ->
      let sp = Printf.sprintf in
      List.for_all
        (fun (got, want) -> String.equal got want)
        [
          (Tpcc.warehouse_ytd_key a, sp "tpcc/w/%d/ytd" a);
          (Tpcc.warehouse_tax_key a, sp "tpcc/w/%d/tax" a);
          (Tpcc.district_next_oid_key ~w:a ~d:b, sp "tpcc/d/%d/%d/next_oid" a b);
          (Tpcc.district_ytd_key ~w:a ~d:b, sp "tpcc/d/%d/%d/ytd" a b);
          (Tpcc.district_tax_key ~w:a ~d:b, sp "tpcc/d/%d/%d/tax" a b);
          (Tpcc.customer_balance_key ~w:a ~d:b ~c, sp "tpcc/c/%d/%d/%d/bal" a b c);
          (Tpcc.customer_ytd_key ~w:a ~d:b ~c, sp "tpcc/c/%d/%d/%d/ytd" a b c);
          (Tpcc.customer_cnt_key ~w:a ~d:b ~c, sp "tpcc/c/%d/%d/%d/cnt" a b c);
          (Tpcc.stock_qty_key ~w:a ~i:b, sp "tpcc/s/%d/%d/qty" a b);
          (Tpcc.stock_ytd_key ~w:a ~i:b, sp "tpcc/s/%d/%d/ytd" a b);
          (Tpcc.order_key ~w:a ~d:b ~o:c, sp "tpcc/o/%d/%d/%d" a b c);
          (Tpcc.order_line_key ~w:a ~d:b ~o:c ~n:d, sp "tpcc/ol/%d/%d/%d/%d" a b c d);
          (Tpcc.order_value ~c:a ~lines:b, sp "c=%d;lines=%d" a b);
          (Tpcc.order_line_value ~i:a ~w:b ~q:c, sp "i=%d;w=%d;q=%d" a b c);
          (Smallbank.checking_key a, sp "sb/c/%d" a);
          (Smallbank.savings_key a, sp "sb/s/%d" a);
        ])

(* TPC-C's initializer as it was written with [String.sub] and
   [Filename.check_suffix]. *)
let old_tpcc_preload key =
  let has_prefix p =
    String.length key >= String.length p && String.sub key 0 (String.length p) = p
  in
  if has_prefix "tpcc/d/" && Filename.check_suffix key "next_oid" then Some "1"
  else if has_prefix "tpcc/s/" && Filename.check_suffix key "qty" then Some "100"
  else if Filename.check_suffix key "tax" then Some "10"
  else if has_prefix "tpcc/" then Some "0"
  else None

let prop_tpcc_preload_unchanged =
  let piece =
    QCheck.Gen.oneofl
      [ "tpcc/"; "tpcc/d/"; "tpcc/s/"; "tpcc/w/"; "1"; "/"; "next_oid"; "qty"; "tax"; "ytd"; "sb/c/"; "x" ]
  in
  QCheck.Test.make ~name:"tpcc preload = its String.sub version" ~count:2000
    (QCheck.make ~print:Fun.id QCheck.Gen.(map (String.concat "") (list_size (int_range 0 5) piece)))
    (fun key -> Tpcc.preload Tpcc.default key = old_tpcc_preload key)

(* The same builders, plus YCSB's key and the integer values, against
   the [^]/[string_of_int] concatenations they replaced. Edge ints
   (digit-count boundaries, max_int, negatives, min_int) are drawn as
   often as random ones. *)
let prop_builders_match_concat =
  let edge = [ 0; 9; 10; 99; 100; 999; 1000; max_int; -1; -9; -10; -100; min_int; min_int + 1 ] in
  let arg = QCheck.(oneof [ oneofl edge; small_signed_int; int ]) in
  QCheck.Test.make ~name:"key/value builders = ^/string_of_int forms" ~count:1000
    QCheck.(quad arg arg arg arg)
    (fun (a, b, c, d) ->
      let n = string_of_int in
      List.for_all
        (fun (got, want) -> String.equal got want)
        [
          (Keyfmt.int a, n a);
          (Txn.of_int a, n a);
          (Ycsb.key ~row:a ~col:b, "ycsb/u" ^ n a ^ "/f" ^ n b);
          (Tpcc.warehouse_ytd_key a, "tpcc/w/" ^ n a ^ "/ytd");
          (Tpcc.warehouse_tax_key a, "tpcc/w/" ^ n a ^ "/tax");
          (Tpcc.district_next_oid_key ~w:a ~d:b, "tpcc/d/" ^ n a ^ "/" ^ n b ^ "/next_oid");
          (Tpcc.district_ytd_key ~w:a ~d:b, "tpcc/d/" ^ n a ^ "/" ^ n b ^ "/ytd");
          (Tpcc.district_tax_key ~w:a ~d:b, "tpcc/d/" ^ n a ^ "/" ^ n b ^ "/tax");
          (Tpcc.customer_balance_key ~w:a ~d:b ~c, "tpcc/c/" ^ n a ^ "/" ^ n b ^ "/" ^ n c ^ "/bal");
          (Tpcc.customer_ytd_key ~w:a ~d:b ~c, "tpcc/c/" ^ n a ^ "/" ^ n b ^ "/" ^ n c ^ "/ytd");
          (Tpcc.customer_cnt_key ~w:a ~d:b ~c, "tpcc/c/" ^ n a ^ "/" ^ n b ^ "/" ^ n c ^ "/cnt");
          (Tpcc.stock_qty_key ~w:a ~i:b, "tpcc/s/" ^ n a ^ "/" ^ n b ^ "/qty");
          (Tpcc.stock_ytd_key ~w:a ~i:b, "tpcc/s/" ^ n a ^ "/" ^ n b ^ "/ytd");
          (Tpcc.order_key ~w:a ~d:b ~o:c, "tpcc/o/" ^ n a ^ "/" ^ n b ^ "/" ^ n c);
          ( Tpcc.order_line_key ~w:a ~d:b ~o:c ~n:d,
            "tpcc/ol/" ^ n a ^ "/" ^ n b ^ "/" ^ n c ^ "/" ^ n d );
          (Tpcc.order_value ~c:a ~lines:b, "c=" ^ n a ^ ";lines=" ^ n b);
          (Tpcc.order_line_value ~i:a ~w:b ~q:c, "i=" ^ n a ^ ";w=" ^ n b ^ ";q=" ^ n c);
          (Smallbank.checking_key a, "sb/c/" ^ n a);
          (Smallbank.savings_key a, "sb/s/" ^ n a);
        ])

(* SmallBank's initializer as it was written with [String.sub]. *)
let old_smallbank_preload cfg key =
  if
    String.length key > 5
    && (String.sub key 0 5 = "sb/c/" || String.sub key 0 5 = "sb/s/")
  then Some (string_of_int cfg.Smallbank.initial_balance)
  else None

let prop_smallbank_preload_unchanged =
  let piece = QCheck.Gen.oneofl [ "sb/"; "sb/c/"; "sb/s/"; "c/"; "7"; "/"; "sb"; "x" ] in
  QCheck.Test.make ~name:"preload = its String.sub version" ~count:2000
    (QCheck.make ~print:Fun.id QCheck.Gen.(map (String.concat "") (list_size (int_range 0 4) piece)))
    (fun key ->
      Smallbank.preload Smallbank.default key
      = old_smallbank_preload Smallbank.default key)

(* [Txn.int_value] against the [int_of_string_opt] decoding it
   replaced: every printed int, 18- to 20-digit strings with and
   without a sign, and the forms [int_of_string] parses or rejects
   beyond plain decimals, each drawn about thirty times. *)
let old_int_value s = match int_of_string_opt s with Some v -> v | None -> 0

let int_value_edges =
  [ ""; "-"; "+"; "+7"; "-+7"; "--7"; "0x1f"; "-0x1f"; "0o17"; "0b101"; "0u9"; "1_000";
    "1_"; "_1"; "007"; "-007"; "0"; "-0"; " 1"; "1 "; "1a"; "a";
    "999999999999999999"; "-999999999999999999"; "1000000000000000000";
    "-1000000000000000000"; "4611686018427387903"; "4611686018427387904";
    "-4611686018427387904"; "-4611686018427387905"; "9999999999999999999";
    "99999999999999999999"; "-99999999999999999999"; "00000000000000000000042" ]

let prop_int_value_matches =
  let digitish =
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 0 22)
           (oneofl [ "0"; "1"; "5"; "9"; "-"; "+"; "_"; "x"; " " ])))
  in
  let printed =
    QCheck.Gen.(map string_of_int (oneof [ oneofl [ 0; max_int; min_int; -1 ]; int; small_signed_int ]))
  in
  QCheck.Test.make ~name:"int_value = int_of_string_opt or 0" ~count:3000
    (QCheck.make ~print:Fun.id QCheck.Gen.(oneof [ oneofl int_value_edges; printed; digitish ]))
    (fun s -> Txn.int_value s = old_int_value s)

let prop_key_tests_match_string =
  let word = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '/' ]) (int_range 0 6)) in
  QCheck.Test.make ~name:"Keyfmt starts/ends_with = String's" ~count:3000
    (QCheck.make ~print:QCheck.Print.(pair Fun.id Fun.id) (QCheck.Gen.pair word word))
    (fun (p, s) ->
      Keyfmt.starts_with ~prefix:p s = String.starts_with ~prefix:p s
      && Keyfmt.ends_with ~suffix:p s = String.ends_with ~suffix:p s)

(* [create_streams] makes, per seed, the stream [create] would. *)
let test_streams_match_create () =
  List.iter
    (fun kind ->
      let seeds = [| 5L; 6L; 7L |] in
      let streams = Workload.create_streams ~scale:0.001 kind ~seeds in
      Array.iteri
        (fun i seed ->
          let a = streams.(i) and b = Workload.create ~scale:0.001 kind ~seed in
          let sa = Hashtbl.create 64 and sb = Hashtbl.create 64 in
          for _ = 1 to 100 do
            let ta = Workload.next a and tb = Workload.next b in
            let name = Workload.kind_name kind in
            Alcotest.(check string) (name ^ " labels equal") ta.Txn.label tb.Txn.label;
            check_int (name ^ " ids equal") ta.Txn.id tb.Txn.id;
            let ra, _, xa = run_body sa ta and rb, _, xb = run_body sb tb in
            Alcotest.(check (list string)) (name ^ " reads equal") ra rb;
            check_bool (name ^ " aborts equal") xa xb
          done;
          let sorted h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
          check_bool "stores equal" true (sorted sa = sorted sb))
        seeds)
    Workload.all_kinds

let () =
  Alcotest.run "massbft_workload"
    [
      ( "generic",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "sequential ids" `Quick test_ids_unique_and_increasing;
          Alcotest.test_case "paper wire sizes" `Quick test_avg_wire_sizes_match_paper;
          Alcotest.test_case "generated sizes sane" `Quick test_generated_sizes_track_averages;
          QCheck_alcotest.to_alcotest prop_builders_match_concat;
          QCheck_alcotest.to_alcotest prop_int_value_matches;
          QCheck_alcotest.to_alcotest prop_key_tests_match_string;
          Alcotest.test_case "streams = create per seed" `Quick test_streams_match_create;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "mix fractions" `Quick test_ycsb_mix_fractions;
          Alcotest.test_case "zipf hotspot" `Quick test_ycsb_zipf_hotspot;
          Alcotest.test_case "update payload" `Quick test_ycsb_update_writes_100b;
        ] );
      ( "smallbank",
        [
          Alcotest.test_case "money conservation" `Quick test_smallbank_conservation;
          Alcotest.test_case "overdraft aborts" `Quick test_smallbank_overdraft_aborts;
          Alcotest.test_case "deposit effect" `Quick test_smallbank_deposit_effect;
          Alcotest.test_case "preload" `Quick test_smallbank_preload;
          QCheck_alcotest.to_alcotest prop_smallbank_preload_unchanged;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "neworder advances oid" `Quick test_tpcc_neworder_advances_oid;
          QCheck_alcotest.to_alcotest prop_builders_match_printf;
          QCheck_alcotest.to_alcotest prop_tpcc_preload_unchanged;
          Alcotest.test_case "payment updates ytd" `Quick test_tpcc_payment_updates_ytd;
          Alcotest.test_case "50/50 mix" `Quick test_tpcc_mix_is_half_half;
          Alcotest.test_case "rollback rate" `Quick test_tpcc_rollback_rate;
          Alcotest.test_case "preload defaults" `Quick test_tpcc_preload_defaults;
          Alcotest.test_case "packed line range" `Quick test_tpcc_packed_line_range;
        ] );
    ]
