(** TPC-C order-processing workload — the subset the paper evaluates:
    50 % NewOrder and 50 % Payment over 128 warehouses. Payment updates
    the warehouse and district year-to-date totals, which are hotspot
    rows; under Aria this is what drives the elevated abort rate the
    paper discusses for Figure 8d. *)

type config = {
  warehouses : int;  (** 128 in the paper *)
  districts_per_warehouse : int;  (** 10 per spec *)
  customers_per_district : int;  (** 3000 per spec *)
  items : int;  (** 100,000 per spec *)
  remote_payment_pct : int;  (** 15 per spec *)
  invalid_item_pct : int;  (** 1: NewOrder's rollback rate per spec *)
}

val default : config

type t

val create : config -> seed:int64 -> t
(** Raises [Invalid_argument] unless [1 <= warehouses < 2^24] and
    [items < 2^32]: a NewOrder packs each of its order lines (item,
    supply warehouse, quantity) into one int. *)

val next : t -> Txn.t
(** Alternating draw of NewOrder / Payment (50/50), wire size 232 B as
    reported by the paper. *)

val next_of : t -> [ `New_order | `Payment ] -> Txn.t
(** Draw a transaction of a specific profile (for targeted tests). *)

val set_shard : t -> index:int -> count:int -> unit
(** Restrict subsequent draws to shard [index] of [count] contiguous
    warehouse ranges (deterministic resharding after a group
    add/remove). Remote picks stay within the shard; a single-warehouse
    shard degrades to all-local. *)

val preload : config -> (string -> string option)
(** Store initializer: district next-order-ids start at 1, stock at 100,
    balances at 0, warehouse/district tax rates fixed. *)

(** Key and value encodings, exposed for tests and examples. Each
    returns the bytes of a ["%d"]-style format, e.g.
    [customer_balance_key ~w ~d ~c] is ["tpcc/c/<w>/<d>/<c>/bal"], and
    is built by {!Keyfmt} in one allocation: transaction bodies mint
    tens of these per execution. *)

val warehouse_ytd_key : int -> string
val warehouse_tax_key : int -> string
val district_next_oid_key : w:int -> d:int -> string
val district_ytd_key : w:int -> d:int -> string
val district_tax_key : w:int -> d:int -> string
val customer_balance_key : w:int -> d:int -> c:int -> string
val customer_ytd_key : w:int -> d:int -> c:int -> string
val customer_cnt_key : w:int -> d:int -> c:int -> string
val stock_qty_key : w:int -> i:int -> string
val stock_ytd_key : w:int -> i:int -> string
val order_key : w:int -> d:int -> o:int -> string
val order_line_key : w:int -> d:int -> o:int -> n:int -> string

val order_value : c:int -> lines:int -> string
(** An order row: ["c=<c>;lines=<lines>"]. *)

val order_line_value : i:int -> w:int -> q:int -> string
(** An order-line row: ["i=<item>;w=<supply warehouse>;q=<quantity>"]. *)
