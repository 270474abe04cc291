module Rng = Massbft_util.Rng

type config = {
  warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
  remote_payment_pct : int;
  invalid_item_pct : int;
}

let default =
  {
    warehouses = 128;
    districts_per_warehouse = 10;
    customers_per_district = 3000;
    items = 100_000;
    remote_payment_pct = 15;
    invalid_item_pct = 1;
  }

type t = {
  cfg : config;
  rng : Rng.t;
  c_customer : int;  (* NURand constants, fixed per generator run *)
  c_item : int;
  mutable next_id : int;
  mutable flip : bool;  (* alternate NewOrder / Payment for an exact 50/50 *)
  mutable shard : (int * int) option;
      (* (index, count): post-reshard warehouse range; None = all *)
}

(* A NewOrder keeps its order lines from batch formation until every
   leader has executed it, so each line is packed into one int: the
   quantity (1..10) in the low [qty_bits], the supply warehouse in the
   next [warehouse_bits], the item above them. *)
let qty_bits = 4
let warehouse_bits = 24
let item_bits = 32

let pack_line ~i ~w ~q = (((i lsl warehouse_bits) lor w) lsl qty_bits) lor q
let line_qty l = l land ((1 lsl qty_bits) - 1)
let line_warehouse l = (l lsr qty_bits) land ((1 lsl warehouse_bits) - 1)
let line_item l = l lsr (qty_bits + warehouse_bits)

let create cfg ~seed =
  if cfg.warehouses < 1 then invalid_arg "Tpcc.create: need >= 1 warehouse";
  if cfg.warehouses >= 1 lsl warehouse_bits then
    invalid_arg "Tpcc.create: warehouses must be below 2^24";
  if cfg.items >= 1 lsl item_bits then invalid_arg "Tpcc.create: items must be below 2^32";
  let rng = Rng.create seed in
  {
    cfg;
    rng;
    c_customer = Rng.int rng 1024;
    c_item = Rng.int rng 8192;
    next_id = 0;
    flip = false;
    shard = None;
  }

let set_shard t ~index ~count =
  if count < 1 || index < 0 || index >= count then
    invalid_arg "Tpcc.set_shard: need 0 <= index < count";
  t.shard <- Some (index, count)

let shard_span t =
  match t.shard with
  | None -> t.cfg.warehouses
  | Some (_, c) -> max 1 (t.cfg.warehouses / c)

(* Warehouse ids are 1-based; fold a whole-range draw into the shard's
   contiguous slice without consuming extra RNG draws. *)
let shard_warehouse t w =
  match t.shard with
  | None -> w
  | Some (i, c) ->
      let span = max 1 (t.cfg.warehouses / c) in
      let lo = min (i * span) (max 0 (t.cfg.warehouses - span)) in
      1 + lo + ((w - 1) mod span)

let pick_warehouse t =
  shard_warehouse t (Rng.int_in t.rng ~lo:1 ~hi:t.cfg.warehouses)

(* A warehouse distinct from [w], within the shard; degenerate
   single-warehouse shards fall back to [w] itself. *)
let pick_other_warehouse t ~w =
  if shard_span t < 2 then w
  else
    let rec pick () =
      let x = pick_warehouse t in
      if x = w then pick () else x
    in
    pick ()

(* TPC-C non-uniform random: hot values spread by a per-run constant. *)
let nurand rng ~a ~c ~lo ~hi =
  let x = Rng.int_in rng ~lo:0 ~hi:a in
  let y = Rng.int_in rng ~lo ~hi in
  (((x lor y) + c) mod (hi - lo + 1)) + lo

(* Transaction bodies mint tens of keys and values each time they
   execute, so their cost lands in the execution layer. Each is one
   allocation through [Keyfmt], with the bytes of ["%d"]. *)
let warehouse_ytd_key w = Keyfmt.cat1 "tpcc/w/" w "/ytd"
let warehouse_tax_key w = Keyfmt.cat1 "tpcc/w/" w "/tax"
let district_next_oid_key ~w ~d = Keyfmt.cat2 "tpcc/d/" w "/" d "/next_oid"
let district_ytd_key ~w ~d = Keyfmt.cat2 "tpcc/d/" w "/" d "/ytd"
let district_tax_key ~w ~d = Keyfmt.cat2 "tpcc/d/" w "/" d "/tax"
let customer_key ~w ~d ~c field = Keyfmt.cat3 "tpcc/c/" w "/" d "/" c field
let customer_balance_key ~w ~d ~c = customer_key ~w ~d ~c "/bal"
let customer_ytd_key ~w ~d ~c = customer_key ~w ~d ~c "/ytd"
let customer_cnt_key ~w ~d ~c = customer_key ~w ~d ~c "/cnt"
let stock_qty_key ~w ~i:item = Keyfmt.cat2 "tpcc/s/" w "/" item "/qty"
let stock_ytd_key ~w ~i:item = Keyfmt.cat2 "tpcc/s/" w "/" item "/ytd"
let order_key ~w ~d ~o = Keyfmt.cat3 "tpcc/o/" w "/" d "/" o ""
let order_line_key ~w ~d ~o ~n = Keyfmt.cat4 "tpcc/ol/" w "/" d "/" o "/" n ""
let order_value ~c ~lines = Keyfmt.cat2 "c=" c ";lines=" lines ""
let order_line_value ~i:item ~w ~q = Keyfmt.cat3 "i=" item ";w=" w ";q=" q ""

let preload _cfg key =
  (* Lazily materialized initial rows; only prefixes that exist in the
     schema get defaults. The key checks allocate nothing: they run once
     per faulted key. *)
  if Keyfmt.starts_with ~prefix:"tpcc/d/" key && Keyfmt.ends_with ~suffix:"next_oid" key
  then Some "1"
  else if Keyfmt.starts_with ~prefix:"tpcc/s/" key && Keyfmt.ends_with ~suffix:"qty" key
  then Some "100"
  else if Keyfmt.ends_with ~suffix:"tax" key then Some "10"
  else if Keyfmt.starts_with ~prefix:"tpcc/" key then Some "0"
  else None

let read_int ctx k = Txn.int_value (Option.value ~default:"0" (ctx.Txn.read k))
let wire = 232

let new_order t ~id =
  let cfg = t.cfg in
  let w = pick_warehouse t in
  let d = Rng.int_in t.rng ~lo:1 ~hi:cfg.districts_per_warehouse in
  let c =
    nurand t.rng ~a:1023 ~c:t.c_customer ~lo:1 ~hi:cfg.customers_per_district
  in
  let ol_cnt = Rng.int_in t.rng ~lo:5 ~hi:15 in
  let invalid = Rng.int t.rng 100 < cfg.invalid_item_pct in
  let lines =
    Array.init ol_cnt (fun _ ->
        let i = nurand t.rng ~a:8191 ~c:t.c_item ~lo:1 ~hi:cfg.items in
        (* 1 % of lines come from a remote warehouse. *)
        let supply_w =
          if cfg.warehouses > 1 && Rng.int t.rng 100 = 0 then
            pick_other_warehouse t ~w
          else w
        in
        let qty = Rng.int_in t.rng ~lo:1 ~hi:10 in
        pack_line ~i ~w:supply_w ~q:qty)
  in
  Txn.make ~id ~label:"tpcc.neworder" ~wire_size:wire (fun ctx ->
      ignore (read_int ctx (warehouse_tax_key w));
      ignore (read_int ctx (district_tax_key ~w ~d));
      ignore (read_int ctx (customer_balance_key ~w ~d ~c));
      (* The district's next order id is the per-district serialization
         point. *)
      let oid_key = district_next_oid_key ~w ~d in
      let o = read_int ctx oid_key in
      ctx.Txn.write oid_key (Txn.of_int (o + 1));
      ctx.Txn.write (order_key ~w ~d ~o)
        (order_value ~c ~lines:(Array.length lines));
      for n = 0 to Array.length lines - 1 do
        let l = lines.(n) in
        let i = line_item l and supply_w = line_warehouse l and qty = line_qty l in
        let qty_key = stock_qty_key ~w:supply_w ~i in
        let sq = read_int ctx qty_key in
        let sq' = if sq - qty >= 10 then sq - qty else sq - qty + 91 in
        ctx.Txn.write qty_key (Txn.of_int sq');
        let ytd_key = stock_ytd_key ~w:supply_w ~i in
        let ytd = read_int ctx ytd_key in
        ctx.Txn.write ytd_key (Txn.of_int (ytd + qty));
        ctx.Txn.write (order_line_key ~w ~d ~o ~n)
          (order_line_value ~i ~w:supply_w ~q:qty)
      done;
      (* Per spec, 1 % of NewOrders hit an unused item id and roll
         back. *)
      if invalid then ctx.Txn.abort ())

let payment t ~id =
  let cfg = t.cfg in
  let w = pick_warehouse t in
  let d = Rng.int_in t.rng ~lo:1 ~hi:cfg.districts_per_warehouse in
  (* 15 % of payments are made by a customer of a remote warehouse. *)
  let cw, cd =
    if cfg.warehouses > 1 && Rng.int t.rng 100 < cfg.remote_payment_pct then
      ( pick_other_warehouse t ~w,
        Rng.int_in t.rng ~lo:1 ~hi:cfg.districts_per_warehouse )
    else (w, d)
  in
  let c =
    nurand t.rng ~a:1023 ~c:t.c_customer ~lo:1 ~hi:cfg.customers_per_district
  in
  let amount = Rng.int_in t.rng ~lo:1 ~hi:5000 in
  Txn.make ~id ~label:"tpcc.payment" ~wire_size:wire (fun ctx ->
      (* Each row is read, then written back under the same key. *)
      let add k delta = ctx.Txn.write k (Txn.of_int (read_int ctx k + delta)) in
      (* Warehouse and district YTD rows: the hotspots. *)
      add (warehouse_ytd_key w) amount;
      add (district_ytd_key ~w ~d) amount;
      add (customer_balance_key ~w:cw ~d:cd ~c) (-amount);
      add (customer_ytd_key ~w:cw ~d:cd ~c) amount;
      add (customer_cnt_key ~w:cw ~d:cd ~c) 1)

let next_of t profile =
  let id = t.next_id in
  t.next_id <- id + 1;
  match profile with `New_order -> new_order t ~id | `Payment -> payment t ~id

let next t =
  t.flip <- not t.flip;
  next_of t (if t.flip then `New_order else `Payment)
