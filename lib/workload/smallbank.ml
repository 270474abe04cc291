module Rng = Massbft_util.Rng

type config = {
  accounts : int;
  initial_balance : int;
  hotspot_fraction : float;
}

let default =
  { accounts = 1_000_000; initial_balance = 10_000; hotspot_fraction = 0.0 }

type t = {
  cfg : config;
  rng : Rng.t;
  mutable next_id : int;
  mutable shard : (int * int) option;
      (* (index, count): post-reshard account range; None = all accounts *)
}

let create cfg ~seed =
  if cfg.accounts < 2 then invalid_arg "Smallbank.create: need >= 2 accounts";
  { cfg; rng = Rng.create seed; next_id = 0; shard = None }

let set_shard t ~index ~count =
  if count < 1 || index < 0 || index >= count then
    invalid_arg "Smallbank.set_shard: need 0 <= index < count";
  t.shard <- Some (index, count)

let shard_span t =
  match t.shard with
  | None -> t.cfg.accounts
  | Some (_, c) -> max 1 (t.cfg.accounts / c)

let shard_account t a =
  match t.shard with
  | None -> a
  | Some (i, c) ->
      let span = max 1 (t.cfg.accounts / c) in
      let lo = min (i * span) (max 0 (t.cfg.accounts - span)) in
      lo + (a mod span)

(* One allocation per key, through [Keyfmt], like the other workloads'
   keys; the bytes are those of ["%d"]. *)
let checking_key a = Keyfmt.cat1 "sb/c/" a ""
let savings_key a = Keyfmt.cat1 "sb/s/" a ""

(* The initial balance is printed once per store; every account row
   faulted in shares it, so a call allocates nothing. *)
let preload cfg =
  let balance = Some (Txn.of_int cfg.initial_balance) in
  fun key ->
    if
      String.length key > 5
      && (Keyfmt.starts_with ~prefix:"sb/c/" key
         || Keyfmt.starts_with ~prefix:"sb/s/" key)
    then balance
    else None

let pick_account t =
  shard_account t
    (if
       t.cfg.hotspot_fraction > 0.0
       && Rng.float t.rng 1.0 < t.cfg.hotspot_fraction
     then Rng.int t.rng (min 100 t.cfg.accounts)
     else Rng.int t.rng t.cfg.accounts)

let pick_two t =
  let a = pick_account t in
  if shard_span t < 2 then (a, (a + 1) mod t.cfg.accounts)
  else
    let rec other () =
      let b = pick_account t in
      if b = a then other () else b
    in
    (a, other ())

let wire = 108

let read_int ctx k = Txn.int_value (Option.value ~default:"0" (ctx.Txn.read k))

let next t =
  let id = t.next_id in
  t.next_id <- id + 1;
  match Rng.int t.rng 6 with
  | 0 ->
      (* Balance: read both rows of one account. *)
      let a = pick_account t in
      Txn.make ~id ~label:"sb.balance" ~wire_size:wire (fun ctx ->
          ignore (read_int ctx (checking_key a));
          ignore (read_int ctx (savings_key a)))
  | 1 ->
      (* DepositChecking: checking += v. *)
      let a = pick_account t and v = 1 + Rng.int t.rng 100 in
      Txn.make ~id ~label:"sb.deposit" ~wire_size:wire (fun ctx ->
          let c = read_int ctx (checking_key a) in
          ctx.Txn.write (checking_key a) (Txn.of_int (c + v)))
  | 2 ->
      (* TransactSavings: savings += v, aborting on overdraft. *)
      let a = pick_account t and v = Rng.int t.rng 200 - 100 in
      Txn.make ~id ~label:"sb.transact" ~wire_size:wire (fun ctx ->
          let s = read_int ctx (savings_key a) in
          if s + v < 0 then ctx.Txn.abort ()
          else ctx.Txn.write (savings_key a) (Txn.of_int (s + v)))
  | 3 ->
      (* Amalgamate: move everything from a's savings+checking to b's
         checking. *)
      let a, b = pick_two t in
      Txn.make ~id ~label:"sb.amalgamate" ~wire_size:wire (fun ctx ->
          let sa = read_int ctx (savings_key a) in
          let ca = read_int ctx (checking_key a) in
          let cb = read_int ctx (checking_key b) in
          ctx.Txn.write (savings_key a) (Txn.of_int 0);
          ctx.Txn.write (checking_key a) (Txn.of_int 0);
          ctx.Txn.write (checking_key b) (Txn.of_int (cb + sa + ca)))
  | 4 ->
      (* WriteCheck: checking -= v, with a penalty when overdrawn. *)
      let a = pick_account t and v = 1 + Rng.int t.rng 100 in
      Txn.make ~id ~label:"sb.writecheck" ~wire_size:wire (fun ctx ->
          let s = read_int ctx (savings_key a) in
          let c = read_int ctx (checking_key a) in
          let total = s + c in
          let penalty = if total < v then 1 else 0 in
          ctx.Txn.write (checking_key a) (Txn.of_int (c - v - penalty)))
  | _ ->
      (* SendPayment: transfer between checking accounts, abort on
         insufficient funds. *)
      let a, b = pick_two t in
      let v = 1 + Rng.int t.rng 100 in
      Txn.make ~id ~label:"sb.sendpayment" ~wire_size:wire (fun ctx ->
          let ca = read_int ctx (checking_key a) in
          if ca < v then ctx.Txn.abort ()
          else begin
            let cb = read_int ctx (checking_key b) in
            ctx.Txn.write (checking_key a) (Txn.of_int (ca - v));
            ctx.Txn.write (checking_key b) (Txn.of_int (cb + v))
          end)
