module Txn = Massbft_workload.Txn

type outcome = {
  committed : Txn.t list;
  conflicted : Txn.t list;
  logic_aborted : Txn.t list;
  reads : int;
  writes : int;
  effects : (string * string) list;
}

(* One cell per distinct key a batch touches. It holds everything the
   batch needs to know about the key: the pre-batch value, loaded from
   the store at most once, and the key's two reservations, the smallest
   batch positions of a writer and of a reader that did not logic-abort.
   A key is hashed once per operation, into the batch table below. After
   phase 1, reservation and validation only walk cell lists. *)
type cell = {
  key : string;
  hash : int;
  mutable loaded : bool;
  mutable snapshot : string option;  (* meaningful once [loaded] *)
  mutable min_w : int;  (* max_int: no reservation *)
  mutable min_r : int;
  mutable next : cell;  (* bucket chain, ended by [nil] *)
}

let rec nil =
  { key = ""; hash = 0; loaded = true; snapshot = None; min_w = max_int;
    min_r = max_int; next = nil }

(* The batch table: chains threaded through the cells themselves, so a
   new key costs one allocation. It starts at the batch's length capped
   at 64 buckets, because a bucket array of 256 words or more is born in
   the major heap, and a fresh one per batch shows in the peak heap. *)
type table = { mutable buckets : cell array; mutable cells : int }

let table_create n =
  let rec pow2 b = if b >= n || b >= 64 then b else pow2 (2 * b) in
  { buckets = Array.make (pow2 8) nil; cells = 0 }

let resize tbl =
  let b = Array.make (2 * Array.length tbl.buckets) nil in
  let mask = Array.length b - 1 in
  let rec move c =
    if c != nil then begin
      let next = c.next in
      let j = c.hash land mask in
      c.next <- Array.unsafe_get b j;
      Array.unsafe_set b j c;
      move next
    end
  in
  Array.iter move tbl.buckets;
  tbl.buckets <- b

let add tbl key h i =
  let b = tbl.buckets in
  let c =
    { key; hash = h; loaded = false; snapshot = None; min_w = max_int;
      min_r = max_int; next = Array.unsafe_get b i }
  in
  Array.unsafe_set b i c;
  tbl.cells <- tbl.cells + 1;
  if tbl.cells > 2 * Array.length b then resize tbl;
  c

(* Top-level loops, not local closures, which would be allocated on
   every call. *)
let rec find tbl key h i c =
  if c == nil then add tbl key h i
  else if c.hash = h && String.equal c.key key then c
  else find tbl key h i c.next

let cell tbl key =
  let h = Hashtbl.hash key in
  let b = tbl.buckets in
  let i = h land (Array.length b - 1) in
  find tbl key h i (Array.unsafe_get b i)

(* A read that the transaction's own writes do not satisfy sees the
   pre-batch store. The store is not written during phase 1, so the
   first such read of a key in the batch loads it (faulting in its
   initial value, exactly as a per-read [Kvstore.get] would) and the
   rest reuse it. *)
let snapshot store c =
  if not c.loaded then begin
    c.snapshot <- Kvstore.get store c.key;
    c.loaded <- true
  end;
  c.snapshot

(* A transaction's buffered writes, newest first: the head shadows the
   tail. Every write is kept, duplicates included, because each one is
   applied and reported in [effects]. *)
type writes = Done | Write of { cell : cell; value : string; older : writes }

let rec own_write c = function
  | Done -> None
  | Write w -> if w.cell == c then Some w.value else own_write c w.older

(* Footprints are kept as prepend-only lists (reads newest first, with
   repeats), not per-transaction hash tables: the workloads touch a
   handful of keys per transaction (YCSB: one; TPC-C: tens), so a
   linear scan by cell identity beats a table and allocates less. *)
type exec_record = {
  txn : Txn.t;
  pos : int;
  reads_l : cell list;
  writes_l : writes;
  logic_abort : bool;
}

type batch = {
  store : Kvstore.t;
  tbl : table;
  mutable reads : int;
  mutable writes : int;
}

(* Reservation and the three conflict tests, over cells only. *)
let rec reserve_writes pos = function
  | Done -> ()
  | Write w ->
      if pos < w.cell.min_w then w.cell.min_w <- pos;
      reserve_writes pos w.older

let rec reserve_reads pos = function
  | [] -> ()
  | c :: rest ->
      if pos < c.min_r then c.min_r <- pos;
      reserve_reads pos rest

let rec waw pos = function
  | Done -> false
  | Write w -> w.cell.min_w < pos || waw pos w.older

let rec war pos = function
  | Done -> false
  | Write w -> w.cell.min_r < pos || war pos w.older

let rec raw pos = function [] -> false | c :: rest -> c.min_w < pos || raw pos rest

let run_one b pos txn =
  let reads_l = ref [] and writes_l = ref Done in
  (* A read-modify-write passes the same key string to [read] and
     [write]; remembering the last key's cell saves the second hash. *)
  let last_key = ref "" and last = ref nil in
  let lookup k =
    if k == !last_key && !last != nil then !last
    else begin
      let c = cell b.tbl k in
      last_key := k;
      last := c;
      c
    end
  in
  let ctx =
    {
      Txn.read =
        (fun k ->
          b.reads <- b.reads + 1;
          let c = lookup k in
          reads_l := c :: !reads_l;
          match own_write c !writes_l with
          | Some _ as v -> v
          | None -> snapshot b.store c);
      write =
        (fun k v ->
          b.writes <- b.writes + 1;
          writes_l := Write { cell = lookup k; value = v; older = !writes_l });
      abort = (fun () -> raise Txn.Logic_abort);
    }
  in
  let logic_abort = try txn.Txn.body ctx; false with Txn.Logic_abort -> true in
  (* Logic aborts hold no reservations: their effects vanish. *)
  if not logic_abort then begin
    reserve_writes pos !writes_l;
    reserve_reads pos !reads_l
  end;
  { txn; pos; reads_l = !reads_l; writes_l = !writes_l; logic_abort }

(* Apply oldest-first so the newest write to a key lands last. The
   recursion depth is the transaction's write count — tens at most.
   Every applied write is also pushed onto [effects] (newest first), so
   the batch's cumulative store mutation survives in the outcome: a
   replica holding an identical store can reach the identical post-state
   by replaying the effect list instead of re-running the batch. *)
let rec apply_writes store effects = function
  | Done -> ()
  | Write w ->
      apply_writes store effects w.older;
      Kvstore.put store w.cell.key w.value;
      effects := (w.cell.key, w.value) :: !effects

(* Latest buffered write for [k], honoring shadowing (newest first). *)
let rec wfind k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else wfind k rest

let rec apply_pairs store effects = function
  | [] -> ()
  | (k, v) :: rest ->
      apply_pairs store effects rest;
      Kvstore.put store k v;
      effects := (k, v) :: !effects

(* Aria's fallback lane: serial execution with immediate visibility;
   deterministic because the order is the list order. *)
let run_fallback b effects txns committed logic =
  List.iter
    (fun (txn : Txn.t) ->
      let writes_l = ref [] in
      let aborted = ref false in
      let ctx =
        {
          Txn.read =
            (fun k ->
              b.reads <- b.reads + 1;
              match wfind k !writes_l with
              | Some v -> Some v
              | None -> Kvstore.get b.store k);
          write =
            (fun k v ->
              b.writes <- b.writes + 1;
              writes_l := (k, v) :: !writes_l);
          abort = (fun () -> raise Txn.Logic_abort);
        }
      in
      (try txn.Txn.body ctx with Txn.Logic_abort -> aborted := true);
      if !aborted then logic := txn :: !logic
      else begin
        apply_pairs b.store effects !writes_l;
        committed := txn :: !committed
      end)
    txns

let execute_batch ?(reorder = true) ?(fallback = []) store txns =
  let b = { store; tbl = table_create (List.length txns); reads = 0; writes = 0 } in
  let records = List.mapi (fun pos txn -> run_one b pos txn) txns in
  let committed = ref [] and conflicted = ref [] and logic = ref [] in
  let effects = ref [] in
  List.iter
    (fun r ->
      if r.logic_abort then logic := r.txn :: !logic
      else begin
        let pos = r.pos in
        let abort =
          waw pos r.writes_l
          ||
          if reorder then raw pos r.reads_l && war pos r.writes_l
          else raw pos r.reads_l
        in
        if abort then conflicted := r.txn :: !conflicted
        else begin
          committed := r.txn :: !committed;
          apply_writes store effects r.writes_l
        end
      end)
    records;
  run_fallback b effects fallback committed logic;
  {
    committed = List.rev !committed;
    conflicted = List.rev !conflicted;
    logic_aborted = List.rev !logic;
    reads = b.reads;
    writes = b.writes;
    effects = List.rev !effects;
  }

let apply_effects store o =
  List.iter (fun (k, v) -> Kvstore.put store k v) o.effects

let commit_rate o =
  let c = List.length o.committed and a = List.length o.conflicted in
  if c + a = 0 then 1.0 else float_of_int c /. float_of_int (c + a)
