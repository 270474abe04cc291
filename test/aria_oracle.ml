(* The Aria executor as it stood before batch-local key cells: two
   reservation hash tables per batch and a store lookup per read. Kept
   as a test oracle only; test_exec checks that Massbft_exec.Aria
   returns the same outcome and leaves the same store. *)

module Txn = Massbft_workload.Txn
module Kvstore = Massbft_exec.Kvstore

type outcome = {
  committed : Txn.t list;
  conflicted : Txn.t list;
  logic_aborted : Txn.t list;
  reads : int;
  writes : int;
  effects : (string * string) list;
}

(* Per-transaction read/write footprints are kept as prepend-only lists
   (newest first), not hash tables: the workloads touch a handful of
   keys per transaction (YCSB: one; TPC-C: tens), so a linear scan of a
   few cons cells beats two fresh hash tables per transaction — and the
   allocation rate matters beyond this module, because every minor GC
   is a stop-the-world rendezvous across the parallel driver's domains.
   A duplicated key in a list only re-checks the same reservation and
   re-reserves the same (key, pos) pair, so dedup is unnecessary for
   correctness. *)
type exec_record = {
  txn : Txn.t;
  pos : int;
  reads_l : string list;
  writes_l : (string * string) list;  (* newest first: head shadows tail *)
  logic_abort : bool;
}

(* Latest buffered write for [k], honoring shadowing (newest first). *)
let rec wfind k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else wfind k rest

(* Apply oldest-first so the newest write to a key lands last. The
   recursion depth is the transaction's write count — tens at most.
   Every applied write is also pushed onto [effects] (newest first), so
   the batch's cumulative store mutation survives in the outcome: a
   replica holding an identical store can reach the identical post-state
   by replaying the effect list instead of re-running the batch. *)
let rec apply_writes store effects = function
  | [] -> ()
  | (k, v) :: rest ->
      apply_writes store effects rest;
      Kvstore.put store k v;
      effects := (k, v) :: !effects

let run_one store pos txn counters =
  let reads_l = ref [] in
  let writes_l = ref [] in
  let aborted = ref false in
  let ctx =
    {
      Txn.read =
        (fun k ->
          reads_l := k :: !reads_l;
          incr (fst counters);
          match wfind k !writes_l with
          | Some v -> Some v
          | None -> Kvstore.get store k);
      write =
        (fun k v ->
          incr (snd counters);
          writes_l := (k, v) :: !writes_l);
      abort = (fun () -> raise Txn.Logic_abort);
    }
  in
  (try txn.Txn.body ctx with Txn.Logic_abort -> aborted := true);
  { txn; pos; reads_l = !reads_l; writes_l = !writes_l; logic_abort = !aborted }

(* Reservation tables: key -> smallest batch position touching it
   (logic aborts hold no reservations: their effects vanish). One
   mutable table per batch instead of a persistent map rebuilt fold by
   fold. *)
let reserve tbl pos k =
  match Hashtbl.find_opt tbl k with
  | Some p when p <= pos -> ()
  | _ -> Hashtbl.replace tbl k pos

let conflicts_with reservations keys ~pos =
  List.exists
    (fun k ->
      match Hashtbl.find_opt reservations k with
      | Some p -> p < pos
      | None -> false)
    keys

let conflicts_with_w reservations writes ~pos =
  List.exists
    (fun (k, _) ->
      match Hashtbl.find_opt reservations k with
      | Some p -> p < pos
      | None -> false)
    writes

(* Aria's fallback lane: serial execution with immediate visibility;
   deterministic because the order is the list order. *)
let run_fallback store effects txns committed logic counters =
  List.iter
    (fun (txn : Txn.t) ->
      let writes_l = ref [] in
      let aborted = ref false in
      let ctx =
        {
          Txn.read =
            (fun k ->
              incr (fst counters);
              match wfind k !writes_l with
              | Some v -> Some v
              | None -> Kvstore.get store k);
          write =
            (fun k v ->
              incr (snd counters);
              writes_l := (k, v) :: !writes_l);
          abort = (fun () -> raise Txn.Logic_abort);
        }
      in
      (try txn.Txn.body ctx with Txn.Logic_abort -> aborted := true);
      if !aborted then logic := txn :: !logic
      else begin
        apply_writes store effects !writes_l;
        committed := txn :: !committed
      end)
    txns

let execute_batch ?(reorder = true) ?(fallback = []) store txns =
  let read_ops = ref 0 and write_ops = ref 0 in
  let counters = (read_ops, write_ops) in
  let records = List.mapi (fun pos txn -> run_one store pos txn counters) txns in
  let write_res = Hashtbl.create 64 in
  let read_res = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if not r.logic_abort then begin
        List.iter (fun (k, _) -> reserve write_res r.pos k) r.writes_l;
        List.iter (fun k -> reserve read_res r.pos k) r.reads_l
      end)
    records;
  let committed = ref [] and conflicted = ref [] and logic = ref [] in
  let effects = ref [] in
  List.iter
    (fun r ->
      if r.logic_abort then logic := r.txn :: !logic
      else begin
        let waw = conflicts_with_w write_res r.writes_l ~pos:r.pos in
        let raw = conflicts_with write_res r.reads_l ~pos:r.pos in
        let war = conflicts_with_w read_res r.writes_l ~pos:r.pos in
        let abort = if reorder then waw || (raw && war) else waw || raw in
        if abort then conflicted := r.txn :: !conflicted
        else begin
          committed := r.txn :: !committed;
          apply_writes store effects r.writes_l
        end
      end)
    records;
  run_fallback store effects fallback committed logic counters;
  {
    committed = List.rev !committed;
    conflicted = List.rev !conflicted;
    logic_aborted = List.rev !logic;
    reads = !read_ops;
    writes = !write_ops;
    effects = List.rev !effects;
  }
