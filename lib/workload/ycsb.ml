module Rng = Massbft_util.Rng
module Zipf = Massbft_util.Zipf

type mix = A | B

type config = {
  rows : int;
  columns : int;
  value_size : int;
  theta : float;
  mix : mix;
}

let default mix = { rows = 1_000_000; columns = 10; value_size = 100; theta = 0.99; mix }

let avg_wire_size cfg =
  (* Key + opcode + signature overhead ~ 100 B; an update additionally
     carries one 100 B column value. The 50 % and 5 % write mixes land
     on the paper's 201 B / 150 B averages with value_size = 100. *)
  let base = 100 in
  let write_fraction = match cfg.mix with A -> 0.5 | B -> 0.05 in
  base + int_of_float (write_fraction *. 2.0 *. float_of_int cfg.value_size)

type t = {
  cfg : config;
  zipf : Zipf.t;
  rng : Rng.t;
  mutable next_id : int;
  mutable shard : (int * int) option;
      (* (index, count): post-reshard key range; None = whole table *)
  value : string;
      (* every update writes the same [value_size] filler; strings are
         immutable, so one shared instance serves every transaction
         instead of a fresh 100-byte allocation per write *)
}

let create_streams cfg ~seeds =
  if cfg.rows <= 0 || cfg.columns <= 0 then
    invalid_arg "Ycsb.create: empty table";
  (* The Zipf constants sum over every row and never change: the
     streams share one table. *)
  let zipf = Zipf.create ~n:cfg.rows ~theta:cfg.theta in
  Array.map
    (fun seed ->
      {
        cfg;
        zipf;
        rng = Rng.create seed;
        next_id = 0;
        shard = None;
        value = String.make cfg.value_size 'v';
      })
    seeds

let create cfg ~seed = (create_streams cfg ~seeds:[| seed |]).(0)

let set_shard t ~index ~count =
  if count < 1 || index < 0 || index >= count then
    invalid_arg "Ycsb.set_shard: need 0 <= index < count";
  t.shard <- Some (index, count)

(* Fold a whole-table row draw into this shard's contiguous slice. The
   RNG consumption is unchanged, so the stream stays deterministic
   across a reshard. *)
let shard_row t row =
  match t.shard with
  | None -> row
  | Some (i, c) ->
      let span = max 1 (t.cfg.rows / c) in
      let lo = min (i * span) (max 0 (t.cfg.rows - span)) in
      lo + (row mod span)

(* One key is minted per generated transaction, in one allocation:
   concatenation with [string_of_int] cost more than the rest of the
   generator at full scale. *)
let key ~row ~col = Keyfmt.cat2 "ycsb/u" row "/f" col ""

let next t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let row = shard_row t (Zipf.scrambled t.zipf t.rng ~hash_seed:0x5eedL) in
  let col = Rng.int t.rng t.cfg.columns in
  let write_pct = match t.cfg.mix with A -> 50 | B -> 5 in
  let is_write = Rng.int t.rng 100 < write_pct in
  let k = key ~row ~col in
  if is_write then begin
    let value = t.value in
    Txn.make ~id ~label:"ycsb.update"
      ~wire_size:(100 + t.cfg.value_size)
      (fun ctx -> ctx.Txn.write k value)
  end
  else
    Txn.make ~id ~label:"ycsb.read" ~wire_size:100 (fun ctx ->
        ignore (ctx.Txn.read k))
