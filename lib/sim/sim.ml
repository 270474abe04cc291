module Trace = Massbft_trace.Trace

(* One event heap, one clock, one seq counter. Events fire in (time,
   seq) order, and seqs are handed out in scheduling order, so events at
   equal timestamps fire FIFO and every run is reproducible from its
   seeds. Shard handles are per-group accounting identities on top of
   the one queue: each keeps its own pending/dispatched counts and its
   own trace-counter track, and any handle drives the whole sim. *)

type state = Pending | Fired | Cancelled

(* The event record is also the cancel handle: its back-reference to
   its shard lets [cancel] maintain the live/garbage accounting without
   widening the public [cancel : timer -> unit] signature. *)
type timer = {
  time : float;
  seq : int;
  fn : unit -> unit;
  owner : t;
  mutable state : state;
}

and t = {
  sid : int;
  core : core;
  mutable live : int;  (* scheduled on this shard, neither cancelled nor fired *)
  mutable dispatched : int;
  mutable last_trace_at : float;
}

(* [heap.(0 .. size-1)] is a binary min-heap in (time, seq) order; slots
   past [size] alias live events (or are stale once the heap empties). *)
and core = {
  mutable shards : t array;
  mutable heap : timer array;
  mutable size : int;
  lookahead : float;
  mutable clock : float;
  mutable next_seq : int;
  mutable garbage : int;  (* cancelled events still sitting in the heap *)
  mutable trace : Trace.t;
}

(* Hand-specialized (time, seq) order, inlined into every sift step.
   Seqs are unique, so this is a strict total order and any correct heap
   pops events in exactly one sequence. *)
let[@inline] earlier a b =
  a.time < b.time || ((not (a.time > b.time)) && a.seq < b.seq)

(* Hole-based sifts: move the displaced parents/children, write [e]
   once where it lands. *)
let rec sift_up h i e =
  if i = 0 then h.(0) <- e
  else
    let p = (i - 1) / 2 in
    let pe = h.(p) in
    if earlier e pe then begin
      h.(i) <- pe;
      sift_up h p e
    end
    else h.(i) <- e

let rec sift_down h size i e =
  let l = (2 * i) + 1 in
  if l >= size then h.(i) <- e
  else
    let r = l + 1 in
    let c = if r < size && earlier h.(r) h.(l) then r else l in
    let ce = h.(c) in
    if earlier ce e then begin
      h.(i) <- ce;
      sift_down h size c e
    end
    else h.(i) <- e

let push c e =
  let cap = Array.length c.heap in
  if c.size = cap then begin
    let grown = Array.make (if cap = 0 then 256 else 2 * cap) e in
    Array.blit c.heap 0 grown 0 c.size;
    c.heap <- grown
  end;
  let i = c.size in
  c.size <- i + 1;
  sift_up c.heap i e

(* Removes and returns the minimum; the heap must be non-empty. The
   vacated tail slot keeps aliasing the (still live) moved element. *)
let pop c =
  let h = c.heap in
  let top = h.(0) in
  let n = c.size - 1 in
  c.size <- n;
  if n > 0 then sift_down h n 0 h.(n);
  top

let create ?(shards = 1) ?(lookahead = 0.0) () =
  if shards < 1 then invalid_arg "Sim.create: shards must be >= 1";
  if lookahead < 0.0 then invalid_arg "Sim.create: negative lookahead";
  let core =
    {
      shards = [||];
      heap = [||];
      size = 0;
      lookahead;
      clock = 0.0;
      next_seq = 0;
      garbage = 0;
      trace = Trace.null;
    }
  in
  core.shards <-
    Array.init shards (fun sid ->
        { sid; core; live = 0; dispatched = 0; last_trace_at = neg_infinity });
  core.shards.(0)

let shard t i =
  let shards = t.core.shards in
  if i < 0 || i >= Array.length shards then
    invalid_arg (Printf.sprintf "Sim.shard: no shard %d" i);
  shards.(i)

let n_shards t = Array.length t.core.shards
let lookahead t = t.core.lookahead
let now t = t.core.clock
let set_trace t tr = t.core.trace <- tr
let dispatched t = t.dispatched

let dispatched_total t =
  Array.fold_left (fun acc s -> acc + s.dispatched) 0 t.core.shards

(* Sampling period for the dispatch-rate counter: often enough to see
   load swings in a trace viewer, rare enough not to crowd the ring
   buffer. Emitting a counter never schedules anything, so tracing
   cannot perturb the event order. *)
let trace_counter_period = 0.1

let at t time fn =
  let c = t.core in
  if time < c.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: scheduling in the past (%.9f < %.9f)" time
         c.clock);
  let e = { time; seq = c.next_seq; fn; owner = t; state = Pending } in
  c.next_seq <- c.next_seq + 1;
  push c e;
  t.live <- t.live + 1;
  e

let after t delay fn =
  if delay < 0.0 then invalid_arg "Sim.after: negative delay";
  at t (t.core.clock +. delay) fn

(* Below this size an occasional linear pop-through of garbage is
   cheaper than rebuilding; above it, compaction keeps pop cost and
   memory proportional to live events. *)
let compaction_min_size = 64

(* Drops every cancelled event and re-heapifies bottom-up (Floyd): O(n),
   no allocation. *)
let compact c =
  let h = c.heap in
  let kept = ref 0 in
  for i = 0 to c.size - 1 do
    let e = h.(i) in
    if e.state <> Cancelled then begin
      h.(!kept) <- e;
      incr kept
    end
  done;
  let n = !kept in
  if n = 0 then c.heap <- [||]
  else begin
    (* Alias the vacated tail to a live event so dropped ones are
       reclaimable. *)
    Array.fill h n (c.size - n) h.(0);
    for i = (n / 2) - 1 downto 0 do
      sift_down h n i h.(i)
    done
  end;
  c.size <- n;
  c.garbage <- 0

let cancel handle =
  if handle.state = Pending then begin
    handle.state <- Cancelled;
    let t = handle.owner in
    let c = t.core in
    t.live <- t.live - 1;
    c.garbage <- c.garbage + 1;
    (* Lazy deletion with bounded slack: once cancelled entries are the
       majority of the heap (garbage > heap - garbage = pending_total),
       evict them all in one O(n) rebuild. Each rebuild is paid for by
       the >= n/2 cancellations since the last one, so cancel stays
       amortized O(1) (plus the O(log n) saved on every later pop). Pop
       order of survivors is untouched — the (time, seq) comparator is
       a total order — so a compacted run dispatches bit-identically to
       an uncompacted one. *)
    if 2 * c.garbage > c.size && c.size >= compaction_min_size then compact c
  end

let pending t = t.live
let pending_total t = t.core.size - t.core.garbage
let heap_size t = t.core.size

let fire c e =
  c.clock <- e.time;
  if e.state = Cancelled then c.garbage <- c.garbage - 1
  else begin
    let s = e.owner in
    e.state <- Fired;
    s.live <- s.live - 1;
    s.dispatched <- s.dispatched + 1;
    let tr = c.trace in
    if Trace.enabled tr && e.time -. s.last_trace_at >= trace_counter_period
    then begin
      (* One throttle per shard, and on multi-shard sims one counter
         track per shard (gid = shard id), so each group's load reads
         as its own track in the Perfetto export. *)
      s.last_trace_at <- e.time;
      let gid = if Array.length c.shards = 1 then None else Some s.sid in
      Trace.counter tr ~ts:e.time ~cat:"sim" ?gid "dispatched"
        (float_of_int s.dispatched);
      Trace.counter tr ~ts:e.time ~cat:"sim" ?gid "pending"
        (float_of_int s.live)
    end;
    e.fn ()
  end

let run t ~until =
  let c = t.core in
  while c.size > 0 && c.heap.(0).time <= until do
    fire c (pop c)
  done;
  if c.clock < until then c.clock <- until

let step t =
  let c = t.core in
  if c.size = 0 then false
  else begin
    fire c (pop c);
    true
  end

let run_until_idle t ?(limit = 100_000_000) () =
  let count = ref 0 in
  while step t do
    incr count;
    if !count > limit then
      failwith "Sim.run_until_idle: event limit exceeded (runaway simulation?)"
  done
