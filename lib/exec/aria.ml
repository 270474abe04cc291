module Txn = Massbft_workload.Txn

(* The execution state, one per domain, reused by every batch and
   emptied after each. Nothing in it is allocated per operation: a
   batch only fills slots of arrays that grow to the largest batch once.

   A cell, one per distinct key a batch touches, is an index into the
   arrays [key] to [min_r]. It holds everything the batch needs to know
   about the key: its hash, its successor in its bucket's chain (-1
   ends one), the pre-batch value (meaningful once [loaded]; loaded
   from the store at most once), and the key's two reservations, the
   smallest batch positions of a writer and of a reader that did not
   logic-abort (max_int: none). [slot] is where the store holds the key
   (-1: not known yet), found by the cell's last store read or write
   while the store had [cap] slots; the store never deletes, so the
   slot holds while its capacity is unchanged, and commit writes
   there without probing again. [heads] holds each bucket's first
   cell. A key is hashed once per operation, into these buckets. After
   phase 1, reservation and validation only walk cell ids.

   A transaction's footprint is a range of each of two batch logs:
   [rlog] holds the cell of every read, [wcell]/[wval] the cell and
   value of every write, both in program order. Batch position [pos] owns
   the reads from [r_start.(pos)] to [r_start.(pos + 1)], and likewise
   the writes; a logic-aborted body's ranges are empty, [logic.(pos)]
   marks it. Every write is kept, duplicates included, because each one
   is applied and reported by [effects]. *)
type t = {
  mutable heads : int array;
  mutable key : string array;
  mutable hash : int array;
  mutable next : int array;
  mutable loaded : bool array;
  mutable snapshot : string option array;
  mutable min_w : int array;
  mutable min_r : int array;
  mutable slot : int array;
  mutable cap : int array;
  mutable cells : int;
  mutable rlog : int array;
  mutable n_reads : int;
  mutable wcell : int array;
  mutable wval : string array;
  mutable n_writes : int;
  mutable w_hi : int;  (* the write log's high-water mark in this batch *)
  mutable kept : int;  (* the committed writes compacted to [0, kept) *)
  mutable r_start : int array;
  mutable w_start : int array;
  mutable logic : bool array;
  (* The running batch. *)
  mutable store : Kvstore.t;
  mutable serial : bool;
      (* fallback lane: reads the transaction's own writes do not
         satisfy go to the live store, not the pre-batch snapshot *)
  mutable reads : int;
  mutable writes : int;
  mutable txn_w : int;  (* the running transaction's first write *)
  (* A read-modify-write passes the same key string to [read] and
     [write]; remembering the last key's cell saves the second hash. *)
  mutable last_key : string;
  mutable last : int;
}

(* Held between batches, so that the state keeps no caller's store. *)
let no_store = Kvstore.create ()

let make () =
  {
    heads = Array.make 64 (-1); key = Array.make 128 ""; hash = Array.make 128 0;
    next = Array.make 128 (-1); loaded = Array.make 128 false;
    snapshot = Array.make 128 None; min_w = Array.make 128 max_int;
    min_r = Array.make 128 max_int; slot = Array.make 128 (-1); cap = Array.make 128 0;
    cells = 0; rlog = Array.make 256 0; n_reads = 0;
    wcell = Array.make 256 0; wval = Array.make 256 ""; n_writes = 0; w_hi = 0; kept = 0;
    r_start = Array.make 64 0; w_start = Array.make 64 0; logic = Array.make 64 false;
    store = no_store; serial = false; reads = 0; writes = 0; txn_w = 0; last_key = "";
    last = -1;
  }

let grown a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_cells t =
  t.key <- grown t.key "";
  t.hash <- grown t.hash 0;
  t.next <- grown t.next (-1);
  t.loaded <- grown t.loaded false;
  t.snapshot <- grown t.snapshot None;
  t.min_w <- grown t.min_w max_int;
  t.min_r <- grown t.min_r max_int;
  t.slot <- grown t.slot (-1);
  t.cap <- grown t.cap 0

(* Doubles the buckets once the batch holds two cells per bucket, so
   they grow to the largest batch's key count once instead of doubling
   up from a small start in every batch. *)
let rehash t =
  let heads = Array.make (2 * Array.length t.heads) (-1) in
  let mask = Array.length heads - 1 in
  for c = 0 to t.cells - 1 do
    let j = Array.unsafe_get t.hash c land mask in
    Array.unsafe_set t.next c (Array.unsafe_get heads j);
    Array.unsafe_set heads j c
  done;
  t.heads <- heads

let add t k h i =
  let c = t.cells in
  if c = Array.length t.key then grow_cells t;
  Array.unsafe_set t.key c k;
  Array.unsafe_set t.hash c h;
  Array.unsafe_set t.loaded c false;
  Array.unsafe_set t.min_w c max_int;
  Array.unsafe_set t.min_r c max_int;
  Array.unsafe_set t.slot c (-1);
  Array.unsafe_set t.next c (Array.unsafe_get t.heads i);
  Array.unsafe_set t.heads i c;
  t.cells <- c + 1;
  if t.cells > 2 * Array.length t.heads then rehash t;
  c

(* Top-level loops, not local closures, which would be allocated on
   every call. *)
let rec find t k h c =
  if c < 0 || (Array.unsafe_get t.hash c = h && String.equal (Array.unsafe_get t.key c) k)
  then c
  else find t k h (Array.unsafe_get t.next c)

let cell t k =
  let h = Hashtbl.hash k in
  let i = h land (Array.length t.heads - 1) in
  let c = find t k h (Array.unsafe_get t.heads i) in
  if c >= 0 then c else add t k h i

let lookup t k =
  if k == t.last_key && t.last >= 0 then t.last
  else begin
    let c = cell t k in
    t.last_key <- k;
    t.last <- c;
    c
  end

(* Notes where the store's latest access to cell [c]'s key found it. *)
let found t c =
  Array.unsafe_set t.slot c (Kvstore.last_slot t.store);
  Array.unsafe_set t.cap c (Kvstore.capacity t.store)

(* The store's value of cell [c]'s key, faulting in its initial value. *)
let load t c =
  let v = Kvstore.get_hashed t.store (Array.unsafe_get t.key c) ~hash:(Array.unsafe_get t.hash c) in
  found t c;
  v

(* A read that the transaction's own writes do not satisfy sees the
   pre-batch store. The store is not written during phase 1, so the
   first such read of a key in the batch loads it (faulting in its
   initial value, exactly as a per-read [Kvstore.get] would) and the
   rest reuse it. *)
let snapshot t c =
  if not (Array.unsafe_get t.loaded c) then begin
    Array.unsafe_set t.snapshot c (load t c);
    Array.unsafe_set t.loaded c true
  end;
  Array.unsafe_get t.snapshot c

(* The log index of the running transaction's newest write to cell
   [c] at or below [i], or an index below [txn_w] if it wrote none:
   newer writes shadow older ones. *)
let rec own_write t c i =
  if i < t.txn_w || Array.unsafe_get t.wcell i = c then i else own_write t c (i - 1)

let log_read t c =
  let n = t.n_reads in
  if n = Array.length t.rlog then t.rlog <- grown t.rlog 0;
  Array.unsafe_set t.rlog n c;
  t.n_reads <- n + 1

let log_write t c v =
  let n = t.n_writes in
  if n = Array.length t.wcell then begin
    t.wcell <- grown t.wcell 0;
    t.wval <- grown t.wval ""
  end;
  Array.unsafe_set t.wcell n c;
  Array.unsafe_set t.wval n v;
  t.n_writes <- n + 1

(* Built once per domain over its state. *)
let context t =
  {
    Txn.read =
      (fun k ->
        t.reads <- t.reads + 1;
        let c = lookup t k in
        log_read t c;
        let i = own_write t c (t.n_writes - 1) in
        if i >= t.txn_w then Some (Array.unsafe_get t.wval i)
        else if t.serial then load t c
        else snapshot t c);
    write =
      (fun k v ->
        t.writes <- t.writes + 1;
        log_write t (lookup t k) v);
    abort = (fun () -> raise Txn.Logic_abort);
  }

let state_key =
  Domain.DLS.new_key (fun () ->
      let t = make () in
      (t, context t))

(* Runs [txn]'s body from an empty footprint and last-key cache; true
   if it logic-aborted. A logic-aborted body's writes are dropped from
   the log; the write log's high-water mark remembers their values
   until the batch is emptied. *)
let run_body t ctx txn =
  let r0 = t.n_reads and w0 = t.n_writes in
  t.txn_w <- w0;
  t.last_key <- "";
  t.last <- -1;
  match txn.Txn.body ctx with
  | () -> false
  | exception Txn.Logic_abort ->
      if t.n_writes > t.w_hi then t.w_hi <- t.n_writes;
      t.n_reads <- r0;
      t.n_writes <- w0;
      true

let ensure_pos t pos =
  if pos + 1 >= Array.length t.r_start then begin
    t.r_start <- grown t.r_start 0;
    t.w_start <- grown t.w_start 0;
    t.logic <- grown t.logic false
  end

(* Phase 1: every body runs against the snapshot, in batch order, and
   a body that did not logic-abort reserves its writes and reads. Logic
   aborts hold no reservations: their effects vanish. *)
let rec run_parallel t ctx pos = function
  | [] ->
      Array.unsafe_set t.r_start pos t.n_reads;
      Array.unsafe_set t.w_start pos t.n_writes
  | txn :: rest ->
      ensure_pos t pos;
      let r0 = t.n_reads and w0 = t.n_writes in
      Array.unsafe_set t.r_start pos r0;
      Array.unsafe_set t.w_start pos w0;
      let aborted = run_body t ctx txn in
      Array.unsafe_set t.logic pos aborted;
      if not aborted then begin
        for i = w0 to t.n_writes - 1 do
          let c = Array.unsafe_get t.wcell i in
          if pos < Array.unsafe_get t.min_w c then Array.unsafe_set t.min_w c pos
        done;
        for i = r0 to t.n_reads - 1 do
          let c = Array.unsafe_get t.rlog i in
          if pos < Array.unsafe_get t.min_r c then Array.unsafe_set t.min_r c pos
        done
      end;
      run_parallel t ctx (pos + 1) rest

(* The three conflict tests, over a footprint range [i, j). *)
let rec waw t pos i j =
  i < j && (Array.unsafe_get t.min_w (Array.unsafe_get t.wcell i) < pos || waw t pos (i + 1) j)

let rec war t pos i j =
  i < j && (Array.unsafe_get t.min_r (Array.unsafe_get t.wcell i) < pos || war t pos (i + 1) j)

let rec raw t pos i j =
  i < j && (Array.unsafe_get t.min_w (Array.unsafe_get t.rlog i) < pos || raw t pos (i + 1) j)

(* Writes [v] to cell [c]'s key: straight into the slot the cell last
   found while the store has not grown since, else through a probe,
   which finds (or binds) the slot anew. *)
let store_write t c v =
  let i = Array.unsafe_get t.slot c in
  if i >= 0 && Array.unsafe_get t.cap c = Kvstore.capacity t.store then
    Kvstore.set_slot t.store i v
  else begin
    Kvstore.put_hashed t.store (Array.unsafe_get t.key c) ~hash:(Array.unsafe_get t.hash c) v;
    found t c
  end

(* Applies writes [w0, w1) to the store oldest first, so the newest
   write to a key lands last, and moves them down to the end of the
   committed prefix of the write log. The ranges of later positions
   start at or above [w1], so the move never overwrites them. *)
let commit t w0 w1 =
  let kept = t.kept in
  for i = w0 to w1 - 1 do
    let c = Array.unsafe_get t.wcell i and v = Array.unsafe_get t.wval i in
    store_write t c v;
    Array.unsafe_set t.wcell (kept + i - w0) c;
    Array.unsafe_set t.wval (kept + i - w0) v
  done;
  t.kept <- kept + w1 - w0

(* Phase 2, in batch order: standard rule or deterministic reordering. *)
let rec validate t reorder pos txns committed conflicted logic =
  match txns with
  | [] -> ()
  | txn :: rest ->
      if Array.unsafe_get t.logic pos then logic := txn :: !logic
      else begin
        let r0 = Array.unsafe_get t.r_start pos and r1 = Array.unsafe_get t.r_start (pos + 1) in
        let w0 = Array.unsafe_get t.w_start pos and w1 = Array.unsafe_get t.w_start (pos + 1) in
        let abort =
          waw t pos w0 w1
          || if reorder then raw t pos r0 r1 && war t pos w0 w1 else raw t pos r0 r1
        in
        if abort then conflicted := txn :: !conflicted
        else begin
          committed := txn :: !committed;
          commit t w0 w1
        end
      end;
      validate t reorder (pos + 1) rest committed conflicted logic

(* Aria's fallback lane: serial execution with immediate visibility;
   deterministic because the order is the list order. Its writes follow
   the committed prefix of the write log; it keeps no read log. *)
let run_fallback t ctx txns committed logic =
  t.serial <- true;
  if t.n_writes > t.w_hi then t.w_hi <- t.n_writes;
  t.n_writes <- t.kept;
  List.iter
    (fun (txn : Txn.t) ->
      t.n_reads <- 0;
      if run_body t ctx txn then logic := txn :: !logic
      else begin
        commit t t.txn_w t.n_writes;
        committed := txn :: !committed
      end)
    txns

(* The committed writes, in application order, copied out of the write
   log once per batch. *)
type applied = { keys : string array; vals : string array }

type outcome = {
  committed : Txn.t list;
  conflicted : Txn.t list;
  logic_aborted : Txn.t list;
  reads : int;
  writes : int;
  applied : applied;
}

let run_batch t ctx reorder fallback txns =
  run_parallel t ctx 0 txns;
  let committed = ref [] and conflicted = ref [] and logic = ref [] in
  validate t reorder 0 txns committed conflicted logic;
  run_fallback t ctx fallback committed logic;
  let n = t.kept in
  let keys = Array.make n "" in
  for i = 0 to n - 1 do
    Array.unsafe_set keys i (Array.unsafe_get t.key (Array.unsafe_get t.wcell i))
  done;
  {
    committed = List.rev !committed;
    conflicted = List.rev !conflicted;
    logic_aborted = List.rev !logic;
    reads = t.reads;
    writes = t.writes;
    applied = { keys; vals = Array.sub t.wval 0 n };
  }

(* Empties the state for the next batch, visiting only the cells and
   write-log slots this batch used. The key, pre-batch value and
   written value slots are reset too, so no string outlives its batch
   here. *)
let clear t =
  let mask = Array.length t.heads - 1 in
  for c = 0 to t.cells - 1 do
    Array.unsafe_set t.heads (Array.unsafe_get t.hash c land mask) (-1);
    Array.unsafe_set t.key c "";
    Array.unsafe_set t.snapshot c None
  done;
  Array.fill t.wval 0 (max t.w_hi t.n_writes) "";
  t.cells <- 0;
  t.n_reads <- 0;
  t.n_writes <- 0;
  t.w_hi <- 0;
  t.kept <- 0;
  t.store <- no_store;
  t.serial <- false;
  t.reads <- 0;
  t.writes <- 0;
  t.txn_w <- 0;
  t.last_key <- "";
  t.last <- -1

let execute_batch ?(reorder = true) ?(fallback = []) store txns =
  let t, ctx = Domain.DLS.get state_key in
  t.store <- store;
  match run_batch t ctx reorder fallback txns with
  | o -> clear t; o
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      clear t;
      Printexc.raise_with_backtrace e bt

let effects (o : outcome) =
  let { keys; vals } = o.applied in
  let rec from i acc = if i < 0 then acc else from (i - 1) ((keys.(i), vals.(i)) :: acc) in
  from (Array.length keys - 1) []

let no_writes = { keys = [||]; vals = [||] }
let without_writes (o : outcome) = { o with applied = no_writes }

let commit_rate o =
  let c = List.length o.committed and a = List.length o.conflicted in
  if c + a = 0 then 1.0 else float_of_int c /. float_of_int (c + a)
