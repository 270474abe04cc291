module Txn = Massbft_workload.Txn

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
   new key costs one allocation. One table is kept per domain and
   emptied after every batch, so its bucket array grows to the largest
   batch's key count once instead of doubling up from a small start in
   every batch. It lists the buckets a batch fills, so emptying it costs
   the batch's keys, not the largest batch's. *)
type table = {
  mutable buckets : cell array;
  mutable cells : int;
  mutable used : int array;  (* the first [n_used] are the non-empty buckets *)
  mutable n_used : int;
}

let table_key =
  Domain.DLS.new_key (fun () ->
      { buckets = Array.make 64 nil; cells = 0; used = Array.make 64 0; n_used = 0 })

let note_used tbl i =
  Array.unsafe_set tbl.used tbl.n_used i;
  tbl.n_used <- tbl.n_used + 1

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
  tbl.buckets <- b;
  tbl.used <- Array.make (Array.length b) 0;
  tbl.n_used <- 0;
  Array.iteri (fun i c -> if c != nil then note_used tbl i) b

(* Unlinks a chain as it empties it: an outcome keeps the cells of its
   committed writes, and a cell still chained to the rest of its bucket
   would keep those alive too. A kept cell also drops its pre-batch
   value, which the store has already replaced. *)
let rec unlink c =
  if c != nil then begin
    let next = c.next in
    c.next <- nil;
    c.snapshot <- None;
    unlink next
  end

let clear tbl =
  let b = tbl.buckets in
  for k = 0 to tbl.n_used - 1 do
    let i = Array.unsafe_get tbl.used k in
    unlink (Array.unsafe_get b i);
    Array.unsafe_set b i nil
  done;
  tbl.n_used <- 0;
  tbl.cells <- 0

let add tbl key h i =
  let b = tbl.buckets in
  let head = Array.unsafe_get b i in
  if head == nil then note_used tbl i;
  let c =
    { key; hash = h; loaded = false; snapshot = None; min_w = max_int;
      min_r = max_int; next = head }
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
    c.snapshot <- Kvstore.get_hashed store c.key ~hash:c.hash;
    c.loaded <- true
  end;
  c.snapshot

(* A transaction's buffered writes, newest first: the head shadows the
   tail. Every write is kept, duplicates included, because each one is
   applied and reported by [effects]. *)
type writes = Done | Write of { cell : cell; value : string; older : writes }

let rec own_write c = function
  | Done -> None
  | Write w -> if w.cell == c then Some w.value else own_write c w.older

(* The write chains of the committed transactions, newest transaction
   first. The batch's store mutation is read back from them on demand
   instead of being copied out write by write. *)
type applied = writes list

type outcome = {
  committed : Txn.t list;
  conflicted : Txn.t list;
  logic_aborted : Txn.t list;
  reads : int;
  writes : int;
  applied : applied;
}

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

(* The batch is also the one execution context: the [Txn.ctx] closures
   are built once per batch over it, and [run_body] resets the running
   transaction's footprint and last-key cache before each body runs. *)
type batch = {
  store : Kvstore.t;
  tbl : table;
  mutable reads : int;
  mutable writes : int;
  mutable serial : bool;
      (* fallback lane: reads the transaction's own writes do not
         satisfy go to the live store, not the pre-batch snapshot *)
  mutable txn_reads : cell list;  (* the running transaction's footprint *)
  mutable txn_writes : writes;
  (* A read-modify-write passes the same key string to [read] and
     [write]; remembering the last key's cell saves the second hash. *)
  mutable last_key : string;
  mutable last : cell;
  mutable applied : applied;
}

let lookup b k =
  if k == b.last_key && b.last != nil then b.last
  else begin
    let c = cell b.tbl k in
    b.last_key <- k;
    b.last <- c;
    c
  end

let context b =
  {
    Txn.read =
      (fun k ->
        b.reads <- b.reads + 1;
        let c = lookup b k in
        b.txn_reads <- c :: b.txn_reads;
        match own_write c b.txn_writes with
        | Some _ as v -> v
        | None ->
            if b.serial then Kvstore.get_hashed b.store c.key ~hash:c.hash
            else snapshot b.store c);
    write =
      (fun k v ->
        b.writes <- b.writes + 1;
        b.txn_writes <- Write { cell = lookup b k; value = v; older = b.txn_writes });
    abort = (fun () -> raise Txn.Logic_abort);
  }

(* Runs [txn]'s body over the batch's context, from an empty footprint
   and last-key cache; true if it logic-aborted. *)
let run_body b ctx txn =
  b.txn_reads <- [];
  b.txn_writes <- Done;
  b.last_key <- "";
  b.last <- nil;
  try txn.Txn.body ctx; false with Txn.Logic_abort -> true

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

let run_one b ctx pos txn =
  let logic_abort = run_body b ctx txn in
  (* Logic aborts hold no reservations: their effects vanish. *)
  if not logic_abort then begin
    reserve_writes pos b.txn_writes;
    reserve_reads pos b.txn_reads
  end;
  { txn; pos; reads_l = b.txn_reads; writes_l = b.txn_writes; logic_abort }

(* Apply oldest-first so the newest write to a key lands last. The
   recursion depth is the transaction's write count — tens at most. *)
let rec apply_writes store = function
  | Done -> ()
  | Write w ->
      apply_writes store w.older;
      Kvstore.put_hashed store w.cell.key ~hash:w.cell.hash w.value

let commit b chain =
  apply_writes b.store chain;
  b.applied <- chain :: b.applied

(* Aria's fallback lane: serial execution with immediate visibility;
   deterministic because the order is the list order. *)
let run_fallback b ctx txns committed logic =
  b.serial <- true;
  List.iter
    (fun (txn : Txn.t) ->
      if run_body b ctx txn then logic := txn :: !logic
      else begin
        commit b b.txn_writes;
        committed := txn :: !committed
      end)
    txns

let run_batch b reorder fallback txns =
  let ctx = context b in
  let records = List.mapi (fun pos txn -> run_one b ctx pos txn) txns in
  let committed = ref [] and conflicted = ref [] and logic = ref [] in
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
          commit b r.writes_l
        end
      end)
    records;
  run_fallback b ctx fallback committed logic;
  {
    committed = List.rev !committed;
    conflicted = List.rev !conflicted;
    logic_aborted = List.rev !logic;
    reads = b.reads;
    writes = b.writes;
    applied = b.applied;
  }

let execute_batch ?(reorder = true) ?(fallback = []) store txns =
  let tbl = Domain.DLS.get table_key in
  let b =
    { store; tbl; reads = 0; writes = 0; serial = false; txn_reads = [];
      txn_writes = Done; last_key = ""; last = nil; applied = [] }
  in
  match run_batch b reorder fallback txns with
  | o -> clear tbl; o
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      clear tbl;
      Printexc.raise_with_backtrace e bt

(* Chains are newest transaction first and each chain newest write
   first, so consing while walking both yields application order. *)
let rec effects_of acc = function
  | Done -> acc
  | Write w -> effects_of ((w.cell.key, w.value) :: acc) w.older

let effects (o : outcome) = List.fold_left effects_of [] o.applied

let without_writes (o : outcome) = { o with applied = [] }

let commit_rate o =
  let c = List.length o.committed and a = List.length o.conflicted in
  if c + a = 0 then 1.0 else float_of_int c /. float_of_int (c + a)
