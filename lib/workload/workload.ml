type kind = Ycsb_a | Ycsb_b | Smallbank | Tpcc

let kind_name = function
  | Ycsb_a -> "YCSB-A"
  | Ycsb_b -> "YCSB-B"
  | Smallbank -> "SmallBank"
  | Tpcc -> "TPC-C"

let all_kinds = [ Ycsb_a; Ycsb_b; Smallbank; Tpcc ]

let avg_wire_size = function
  | Ycsb_a -> 201
  | Ycsb_b -> 150
  | Smallbank -> 108
  | Tpcc -> 232

let scaled scale n = max 2 (int_of_float (float_of_int n *. scale))

let ycsb_config ~scale mix =
  let d = Ycsb.default mix in
  { d with Ycsb.rows = scaled scale d.Ycsb.rows }

let smallbank_config ~scale =
  { Smallbank.default with Smallbank.accounts = scaled scale Smallbank.default.Smallbank.accounts }

let tpcc_config ~scale =
  { Tpcc.default with Tpcc.warehouses = scaled scale Tpcc.default.Tpcc.warehouses }

type gen =
  | G_ycsb of Ycsb.t
  | G_smallbank of Smallbank.t
  | G_tpcc of Tpcc.t

type t = { kind : kind; gen : gen }

let check_scale scale =
  if scale <= 0.0 || scale > 1.0 then
    invalid_arg "Workload.create: scale must be in (0, 1]"

let create ?(scale = 1.0) kind ~seed =
  check_scale scale;
  let gen =
    match kind with
    | Ycsb_a -> G_ycsb (Ycsb.create (ycsb_config ~scale Ycsb.A) ~seed)
    | Ycsb_b -> G_ycsb (Ycsb.create (ycsb_config ~scale Ycsb.B) ~seed)
    | Smallbank -> G_smallbank (Smallbank.create (smallbank_config ~scale) ~seed)
    | Tpcc -> G_tpcc (Tpcc.create (tpcc_config ~scale) ~seed)
  in
  { kind; gen }

let create_streams ?(scale = 1.0) kind ~seeds =
  check_scale scale;
  let ycsb mix =
    Array.map (fun g -> { kind; gen = G_ycsb g })
      (Ycsb.create_streams (ycsb_config ~scale mix) ~seeds)
  in
  match kind with
  | Ycsb_a -> ycsb Ycsb.A
  | Ycsb_b -> ycsb Ycsb.B
  | Smallbank | Tpcc -> Array.map (fun seed -> create ~scale kind ~seed) seeds

let next t =
  match t.gen with
  | G_ycsb g -> Ycsb.next g
  | G_smallbank g -> Smallbank.next g
  | G_tpcc g -> Tpcc.next g

let kind t = t.kind

let set_shard t ~index ~count =
  match t.gen with
  | G_ycsb g -> Ycsb.set_shard g ~index ~count
  | G_smallbank g -> Smallbank.set_shard g ~index ~count
  | G_tpcc g -> Tpcc.set_shard g ~index ~count

(* The configuration is built once, when a store takes [preload ~scale
   kind] as its initializer, not on every cold key it faults in. *)
let preload ?(scale = 1.0) kind =
  match kind with
  | Ycsb_a | Ycsb_b -> fun _ -> None (* YCSB cells default to absent *)
  | Smallbank -> Smallbank.preload (smallbank_config ~scale)
  | Tpcc -> Tpcc.preload (tpcc_config ~scale)
