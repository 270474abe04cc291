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

   Phase 1 never writes the store. A read of a cold row takes the
   initializer's value and notes its cell in [faults]; the cell's
   [slot] is then the empty slot where the store's probe ended, and
   the row is inserted there once phase 1 is over.

   A transaction's footprint is a range of each of two batch logs:
   [rlog] holds the cell of every read, [wcell]/[wval] the cell and
   value of every write, both in program order. Batch position [pos]
   owns the reads from [r_start.(pos)] to [r_start.(pos + 1)], and
   likewise the writes, in the logs of the domain that ran it; a
   logic-aborted body's ranges are empty, [logic.(pos)] marks it. Every
   write is kept, duplicates included, because each one is applied. *)
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
  mutable faults : int array;
  mutable n_faults : int;
  mutable rlog : int array;
  mutable n_reads : int;
  mutable wcell : int array;
  mutable wval : string array;
  mutable n_writes : int;
  mutable w_hi : int;  (* the write log's high-water mark in this batch *)
  mutable r_start : int array;
  mutable w_start : int array;
  mutable logic : bool array;
  (* The running batch. *)
  mutable store : Kvstore.t;
  mutable serial : bool;
      (* fallback lane: reads the transaction's own writes do not
         satisfy go to the live store, not the pre-batch snapshot *)
  mutable on_write : (string -> string -> unit) option;
  mutable reads : int;
  mutable writes : int;
  mutable txn_w : int;  (* the running transaction's first write *)
  mutable pos : int;  (* the running transaction's batch position *)
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
      (* the body that raised in this domain's share of a split phase 1 *)
  (* A read-modify-write passes the same key string to [read] and
     [write]; remembering the last key's cell saves the second hash. *)
  mutable last_key : string;
  mutable last : int;
  (* Kept across batches: the work gate, and counts for tests. *)
  mutable heavy : bool;  (* the previous batch passed the work gate *)
  mutable split : int;
  mutable helper_words : int;
}

(* Held between batches, so that the state keeps no caller's store. *)
let no_store = Kvstore.create ()

let make () =
  {
    heads = Array.make 64 (-1); key = Array.make 128 ""; hash = Array.make 128 0;
    next = Array.make 128 (-1); loaded = Array.make 128 false;
    snapshot = Array.make 128 None; min_w = Array.make 128 max_int;
    min_r = Array.make 128 max_int; slot = Array.make 128 (-1); cap = Array.make 128 0;
    cells = 0; faults = Array.make 64 0; n_faults = 0; rlog = Array.make 256 0; n_reads = 0;
    wcell = Array.make 256 0; wval = Array.make 256 ""; n_writes = 0; w_hi = 0;
    r_start = Array.make 64 0; w_start = Array.make 64 0; logic = Array.make 64 false;
    store = no_store; serial = false; on_write = None; reads = 0; writes = 0; txn_w = 0;
    pos = 0; failure = None; last_key = ""; last = -1; heavy = false; split = 0;
    helper_words = 0;
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

let bucket t h = Array.unsafe_get t.heads (h land (Array.length t.heads - 1))

let cell t k =
  let h = Hashtbl.hash k in
  let c = find t k h (bucket t h) in
  if c >= 0 then c else add t k h (h land (Array.length t.heads - 1))

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

(* The live store's value of cell [c]'s key, faulting in its initial
   value: the fallback lane's read. *)
let load t c =
  let v = Kvstore.get_hashed t.store (Array.unsafe_get t.key c) ~hash:(Array.unsafe_get t.hash c) in
  found t c;
  v

let log_fault t c =
  let n = t.n_faults in
  if n = Array.length t.faults then t.faults <- grown t.faults 0;
  Array.unsafe_set t.faults n c;
  t.n_faults <- n + 1

(* A read that the transaction's own writes do not satisfy sees the
   pre-batch store. The first such read of a key in the batch finds it
   without writing the store, and the rest reuse what it found. A cold
   row reads its initial value, exactly as a per-read [Kvstore.get]
   would, and is inserted after phase 1 ([insert_faults]). *)
let snapshot t c =
  if not (Array.unsafe_get t.loaded c) then begin
    let s = t.store and k = Array.unsafe_get t.key c in
    let i = Kvstore.find s k ~hash:(Array.unsafe_get t.hash c) in
    let v =
      if Kvstore.bound s i then begin
        Array.unsafe_set t.slot c i;
        Some (Kvstore.value s i)
      end
      else
        match Kvstore.initial s k with
        | None -> None
        | Some _ as v ->
            Array.unsafe_set t.slot c i;
            log_fault t c;
            v
    in
    Array.unsafe_set t.cap c (Kvstore.capacity s);
    Array.unsafe_set t.snapshot c v;
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

(* Grows the per-position arrays to hold positions [0, n]. *)
let rec ensure_positions t n =
  if n >= Array.length t.r_start then begin
    t.r_start <- grown t.r_start 0;
    t.w_start <- grown t.w_start 0;
    t.logic <- grown t.logic false;
    ensure_positions t n
  end

(* Phase 1 over positions [pos, stop) of [txns], which starts at [pos]:
   every body runs against the snapshot, in batch order, and a body
   that did not logic-abort reserves its writes and reads. Logic aborts
   hold no reservations: their effects vanish. Returns the rest of
   [txns]; the footprint of [stop - 1] ends at [r_start.(stop)]. *)
let rec run_chunk t ctx pos stop txns =
  match txns with
  | txn :: rest when pos < stop ->
      let r0 = t.n_reads and w0 = t.n_writes in
      Array.unsafe_set t.r_start pos r0;
      Array.unsafe_set t.w_start pos w0;
      t.pos <- pos;
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
      run_chunk t ctx (pos + 1) stop rest
  | _ ->
      Array.unsafe_set t.r_start pos t.n_reads;
      Array.unsafe_set t.w_start pos t.n_writes;
      txns

(* ------------------------------------------------------------------ *)
(* Phase 1 on two domains                                              *)
(* ------------------------------------------------------------------ *)

(* A heavy batch's phase 1 is shared with one persistent helper domain:
   both claim [chunk] consecutive positions at a time from an atomic
   counter and run them into their own states. The work gate: the
   executor's previous batch averaged [gate_ops] store operations per
   transaction, and this batch has [min_split] positions. YCSB's
   one-operation transactions never pass it, so a YCSB run never
   spawns the helper (an idle helper still costs every minor
   collection a second domain). *)
let chunk_bits = 3
let chunk = 1 lsl chunk_bits
let gate_ops = 8
let min_split = 8 * chunk
let multicore = Domain.recommended_domain_count () >= 2

(* A job's phase: the caller posts it; the helper starts it unless the
   caller, having claimed every chunk itself, cancelled it first. *)
let posted = 0
let running = 1
let finished = 2
let cancelled = 3

type job = {
  txns : Txn.t list;
  n : int;
  store_of : Kvstore.t;
  backtraces : bool;  (* the caller's [Printexc.backtrace_status] *)
  next_chunk : int Atomic.t;
  owner : Bytes.t;  (* per chunk: '\001' if the helper claimed it *)
  phase : int Atomic.t;
  mutable words : int;  (* the helper's minor words for this job *)
}

type helper = {
  hstate : t;  (* the helper domain's state *)
  busy : bool Atomic.t;  (* a caller holds the helper *)
  lock : Mutex.t;
  wake : Condition.t;  (* a job was posted *)
  done_ : Condition.t;  (* a job finished *)
  mutable job : job option;
}

let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: rest -> drop (n - 1) rest

(* Claims chunks until none is left or a body raised; [pos] and [txns]
   are where the domain's walk of the batch list stands. A raise is
   noted with its position and ends claiming on both domains: every
   chunk below it has been claimed already, so the lowest raise over
   both domains is the one a sequential phase 1 would have met. *)
let rec claim t ctx job ~helper pos txns =
  let k = Atomic.fetch_and_add job.next_chunk 1 in
  let p = k lsl chunk_bits in
  if p < job.n then begin
    if helper then Bytes.unsafe_set job.owner k '\001';
    let stop = min job.n (p + chunk) in
    match run_chunk t ctx p stop (drop (p - pos) txns) with
    | rest -> claim t ctx job ~helper stop rest
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        t.failure <- Some (t.pos, e, bt);
        Atomic.set job.next_chunk (Bytes.length job.owner)
  end

let rec wait_job h =
  match h.job with
  | Some job ->
      h.job <- None;
      job
  | None ->
      Condition.wait h.wake h.lock;
      wait_job h

let rec serve h ctx =
  Mutex.lock h.lock;
  let job = wait_job h in
  Mutex.unlock h.lock;
  if Atomic.compare_and_set job.phase posted running then begin
    let t = h.hstate in
    if Printexc.backtrace_status () <> job.backtraces then
      Printexc.record_backtrace job.backtraces;
    let w0 = Gc.minor_words () in
    t.store <- job.store_of;
    (match ensure_positions t job.n with
    | () -> claim t ctx job ~helper:true 0 job.txns
    | exception e -> t.failure <- Some (-1, e, Printexc.get_raw_backtrace ()));
    job.words <- int_of_float (Gc.minor_words () -. w0);
    Atomic.set job.phase finished;
    Mutex.lock h.lock;
    Condition.broadcast h.done_;
    Mutex.unlock h.lock
  end;
  serve h ctx

(* The helper, spawned by the first batch that passes the gate. *)
type helper_slot = Unspawned | Ready of helper | Unavailable

let the_helper = Atomic.make Unspawned
let spawn_lock = Mutex.create ()

let spawn () =
  let t = make () in
  let h =
    {
      hstate = t; busy = Atomic.make false; lock = Mutex.create (); wake = Condition.create ();
      done_ = Condition.create (); job = None;
    }
  in
  match
    Domain.spawn (fun () ->
        let ctx = context t in
        Domain.DLS.set state_key (t, ctx);
        serve h ctx)
  with
  | _ -> Ready h
  | exception Failure _ -> Unavailable

(* The helper, held for this batch, or None: the caller runs alone. *)
let acquire () =
  let slot =
    match Atomic.get the_helper with
    | Unspawned ->
        Mutex.protect spawn_lock (fun () ->
            (match Atomic.get the_helper with
            | Unspawned -> Atomic.set the_helper (spawn ())
            | Ready _ | Unavailable -> ());
            Atomic.get the_helper)
    | s -> s
  in
  match slot with
  | Ready h when Atomic.compare_and_set h.busy false true -> Some h
  | Ready _ | Unspawned | Unavailable -> None

let rec await h job spins =
  if Atomic.get job.phase <> finished then
    if spins > 0 then begin
      Domain.cpu_relax ();
      await h job (spins - 1)
    end
    else begin
      Mutex.lock h.lock;
      while Atomic.get job.phase <> finished do
        Condition.wait h.done_ h.lock
      done;
      Mutex.unlock h.lock
    end

(* Folds the helper's reservations into the caller's and back: a key
   that both domains touched gets the smaller position on both sides,
   so each domain's positions validate against its own cells. Only
   ints cross; none of the helper's keys, values or snapshots is stored
   in the caller's arrays. *)
let merge t h =
  for c = 0 to h.cells - 1 do
    let hc = Array.unsafe_get h.hash c in
    let d = find t (Array.unsafe_get h.key c) hc (bucket t hc) in
    if d >= 0 then begin
      let w = min (Array.unsafe_get t.min_w d) (Array.unsafe_get h.min_w c) in
      Array.unsafe_set t.min_w d w;
      Array.unsafe_set h.min_w c w;
      let r = min (Array.unsafe_get t.min_r d) (Array.unsafe_get h.min_r c) in
      Array.unsafe_set t.min_r d r;
      Array.unsafe_set h.min_r c r
    end
  done

(* Runs phase 1 over the caller and the helper; the positions the
   helper ran are marked in the returned owner bytes. Re-raises the
   lowest position's exception once both domains have stopped. *)
let run_split t ctx h txns n =
  let job =
    {
      txns; n; store_of = t.store; backtraces = Printexc.backtrace_status ();
      next_chunk = Atomic.make 0; owner = Bytes.make ((n + chunk - 1) lsr chunk_bits) '\000';
      phase = Atomic.make posted; words = 0;
    }
  in
  t.split <- t.split + 1;
  Mutex.lock h.lock;
  h.job <- Some job;
  Condition.signal h.wake;
  Mutex.unlock h.lock;
  claim t ctx job ~helper:false 0 txns;
  let helped = not (Atomic.compare_and_set job.phase posted cancelled) in
  if helped then begin
    await h job 20_000;
    t.helper_words <- t.helper_words + job.words
  end
  else begin
    Mutex.lock h.lock;
    h.job <- None;
    Mutex.unlock h.lock
  end;
  let hs = h.hstate in
  (match (t.failure, if helped then hs.failure else None) with
  | None, None -> ()
  | Some (p, e, bt), Some (q, _, _) when p < q -> Printexc.raise_with_backtrace e bt
  | _, Some (_, e, bt) | Some (_, e, bt), None -> Printexc.raise_with_backtrace e bt);
  if helped then merge t hs;
  job.owner

(* ------------------------------------------------------------------ *)
(* After phase 1: faults, validation, commit, fallback                 *)
(* ------------------------------------------------------------------ *)

(* Inserts the cold rows phase 1 read, each at the empty slot its read
   found while the store has not grown since. A key both domains read
   is inserted by the first and found by the second. *)
let insert_faults t =
  let s = t.store in
  for j = 0 to t.n_faults - 1 do
    let c = Array.unsafe_get t.faults j in
    let v = match Array.unsafe_get t.snapshot c with Some v -> v | None -> assert false in
    let i = if Array.unsafe_get t.cap c = Kvstore.capacity s then Array.unsafe_get t.slot c else -1 in
    Array.unsafe_set t.slot c
      (Kvstore.fault_in s (Array.unsafe_get t.key c) ~hash:(Array.unsafe_get t.hash c) ~slot:i v);
    Array.unsafe_set t.cap c (Kvstore.capacity s)
  done

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

(* Applies writes [w0, w1) of state [s] to the store oldest first, so
   the newest write to a key lands last. *)
let commit on_write s w0 w1 =
  for i = w0 to w1 - 1 do
    let c = Array.unsafe_get s.wcell i and v = Array.unsafe_get s.wval i in
    store_write s c v;
    match on_write with None -> () | Some f -> f (Array.unsafe_get s.key c) v
  done

(* Phase 2, in batch order: standard rule or deterministic reordering.
   Position [pos] is validated in the state of the domain that ran it:
   [h] where [owner] marks its chunk, else [t]. *)
let rec validate t h owner reorder pos txns committed conflicted logic =
  match txns with
  | [] -> ()
  | txn :: rest ->
      let s =
        if Bytes.length owner > 0 && Bytes.unsafe_get owner (pos lsr chunk_bits) <> '\000' then h
        else t
      in
      if Array.unsafe_get s.logic pos then logic := txn :: !logic
      else begin
        let r0 = Array.unsafe_get s.r_start pos and r1 = Array.unsafe_get s.r_start (pos + 1) in
        let w0 = Array.unsafe_get s.w_start pos and w1 = Array.unsafe_get s.w_start (pos + 1) in
        let abort =
          waw s pos w0 w1
          || if reorder then raw s pos r0 r1 && war s pos w0 w1 else raw s pos r0 r1
        in
        if abort then conflicted := txn :: !conflicted
        else begin
          committed := txn :: !committed;
          commit t.on_write s w0 w1
        end
      end;
      validate t h owner reorder (pos + 1) rest committed conflicted logic

(* Aria's fallback lane: serial execution with immediate visibility;
   deterministic because the order is the list order. Its writes follow
   phase 1's in the write log; it keeps no read log. *)
let run_fallback t ctx txns committed logic =
  t.serial <- true;
  List.iter
    (fun (txn : Txn.t) ->
      t.n_reads <- 0;
      if run_body t ctx txn then logic := txn :: !logic
      else begin
        commit t.on_write t t.txn_w t.n_writes;
        committed := txn :: !committed
      end)
    txns

type outcome = {
  committed : Txn.t list;
  conflicted : Txn.t list;
  logic_aborted : Txn.t list;
  reads : int;
  writes : int;
}

let run_batch t ctx helper reorder fallback txns n =
  ensure_positions t n;
  let owner, h =
    match helper with
    | Some h ->
        let owner = run_split t ctx h txns n in
        insert_faults t;
        insert_faults h.hstate;
        (owner, h.hstate)
    | None ->
        ignore (run_chunk t ctx 0 n txns);
        insert_faults t;
        (Bytes.empty, t)
  in
  let committed = ref [] and conflicted = ref [] and logic = ref [] in
  validate t h owner reorder 0 txns committed conflicted logic;
  run_fallback t ctx fallback committed logic;
  let reads = if h == t then t.reads else t.reads + h.reads in
  let writes = if h == t then t.writes else t.writes + h.writes in
  let txns = n + List.length fallback in
  t.heavy <- txns > 0 && reads + writes >= gate_ops * txns;
  {
    committed = List.rev !committed;
    conflicted = List.rev !conflicted;
    logic_aborted = List.rev !logic;
    reads;
    writes;
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
  t.n_faults <- 0;
  t.n_reads <- 0;
  t.n_writes <- 0;
  t.w_hi <- 0;
  t.store <- no_store;
  t.serial <- false;
  t.on_write <- None;
  t.reads <- 0;
  t.writes <- 0;
  t.txn_w <- 0;
  t.failure <- None;
  t.last_key <- "";
  t.last <- -1

let finish t helper =
  clear t;
  match helper with
  | Some h ->
      clear h.hstate;
      Atomic.set h.busy false
  | None -> ()

let execute_batch ?(reorder = true) ?(fallback = []) ?on_write store txns =
  let t, ctx = Domain.DLS.get state_key in
  t.store <- store;
  t.on_write <- on_write;
  let n = List.length txns in
  let helper = if t.heavy && multicore && n >= min_split then acquire () else None in
  match run_batch t ctx helper reorder fallback txns n with
  | o ->
      finish t helper;
      o
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish t helper;
      Printexc.raise_with_backtrace e bt

let split_batches () = (fst (Domain.DLS.get state_key)).split
let helper_minor_words () = (fst (Domain.DLS.get state_key)).helper_words

let commit_rate o =
  let c = List.length o.committed and a = List.length o.conflicted in
  if c + a = 0 then 1.0 else float_of_int c /. float_of_int (c + a)
