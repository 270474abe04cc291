module Heap = Massbft_util.Heap
module Trace = Massbft_trace.Trace

(* One event heap, one clock, one seq counter. Events fire in (time,
   seq) order, and seqs are handed out in scheduling order, so events at
   equal timestamps fire FIFO and every run is reproducible from its
   seeds. Shard handles are per-group accounting identities on top of
   the one queue: each keeps its own pending/dispatched counts and its
   own trace-counter track, and any handle drives the whole sim. *)

(* The timer handle carries a back-reference to its shard so [cancel]
   can maintain the live/garbage accounting without widening the public
   [cancel : timer -> unit] signature. *)
type timer = { mutable cancelled : bool; mutable fired : bool; owner : t }

and event = { time : float; seq : int; handle : timer; fn : unit -> unit }

and t = {
  sid : int;
  core : core;
  mutable live : int;  (* scheduled on this shard, neither cancelled nor fired *)
  mutable dispatched : int;
  mutable last_trace_at : float;
}

and core = {
  mutable shards : t array;
  queue : event Heap.t;
  lookahead : float;
  mutable clock : float;
  mutable next_seq : int;
  mutable garbage : int;  (* cancelled events still sitting in the heap *)
  mutable trace : Trace.t;
  mutable prof : host_prof option;
}

(* Host-side self-profiling sink. The simulator never reads the host
   clock itself — a profiled [run] advances in slices and reports each
   one, never per event. [None] (the default) keeps the driver loop
   exactly as fast and allocation-free as an uninstrumented build. *)
and host_prof = {
  hp_clock : unit -> float;  (* host time in seconds; must be monotonic *)
  hp_seq : until:float -> dt:float -> events:int -> unit;
      (* one profiled slice of [run] *)
}

(* Hand-specialized (time, seq) order: this comparison runs on every
   sift of every heap operation, and the polymorphic [compare] would
   take the generic structural-comparison path for both fields. *)
let compare_event a b =
  if a.time < b.time then -1
  else if a.time > b.time then 1
  else Stdlib.Int.compare a.seq b.seq

let create ?(shards = 1) ?(lookahead = 0.0) () =
  if shards < 1 then invalid_arg "Sim.create: shards must be >= 1";
  if lookahead < 0.0 then invalid_arg "Sim.create: negative lookahead";
  let core =
    {
      shards = [||];
      queue = Heap.create ~cmp:compare_event;
      lookahead;
      clock = 0.0;
      next_seq = 0;
      garbage = 0;
      trace = Trace.null;
      prof = None;
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
let set_prof t p = t.core.prof <- p
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
  let handle = { cancelled = false; fired = false; owner = t } in
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  Heap.push c.queue { time; seq; handle; fn };
  t.live <- t.live + 1;
  handle

let after t delay fn =
  if delay < 0.0 then invalid_arg "Sim.after: negative delay";
  at t (t.core.clock +. delay) fn

(* Below this size an occasional linear pop-through of garbage is
   cheaper than rebuilding; above it, compaction keeps pop cost and
   memory proportional to live events. *)
let compaction_min_size = 64

let cancel handle =
  if not handle.cancelled && not handle.fired then begin
    handle.cancelled <- true;
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
    let size = Heap.length c.queue in
    if 2 * c.garbage > size && size >= compaction_min_size then begin
      Heap.filter_in_place c.queue (fun e -> not e.handle.cancelled);
      c.garbage <- 0
    end
  end

let pending t = t.live
let pending_total t = Heap.length t.core.queue - t.core.garbage
let heap_size t = Heap.length t.core.queue

let fire c e =
  c.clock <- e.time;
  if e.handle.cancelled then c.garbage <- c.garbage - 1
  else begin
    let s = e.handle.owner in
    e.handle.fired <- true;
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

let run_plain c ~until =
  let continue = ref true in
  while !continue do
    match Heap.peek c.queue with
    | Some e when e.time <= until ->
        ignore (Heap.pop c.queue);
        fire c e
    | _ -> continue := false
  done;
  if c.clock < until then c.clock <- until

let run t ~until =
  let c = t.core in
  match c.prof with
  | None -> run_plain c ~until
  | Some p when not (Float.is_finite until) ->
      (* Unbounded runs cannot be sliced; account the whole drain as
         one slice. *)
      let t0 = p.hp_clock () in
      let d0 = dispatched_total t in
      run_plain c ~until;
      p.hp_seq ~until ~dt:(p.hp_clock () -. t0)
        ~events:(dispatched_total t - d0)
  | Some p ->
      (* Profiled driver: advance in lookahead-width slices (whole-range
         when the sim has no lookahead) so per-slice wall time and GC
         deltas are visible without touching the host clock per event.
         Slicing changes nothing observable — events fire in the same
         total order and the clock only ever advances — so golden
         fixtures stay byte-identical under profiling. *)
      let stride =
        if c.lookahead > 0.0 then c.lookahead
        else Float.max (until -. c.clock) 1e-9
      in
      let continue = ref true in
      while !continue do
        let w_end = Float.min (c.clock +. stride) until in
        let t0 = p.hp_clock () in
        let d0 = dispatched_total t in
        run_plain c ~until:w_end;
        p.hp_seq ~until:w_end ~dt:(p.hp_clock () -. t0)
          ~events:(dispatched_total t - d0);
        if w_end >= until then continue := false
      done

let step t =
  let c = t.core in
  match Heap.pop c.queue with
  | None -> false
  | Some e ->
      fire c e;
      true

let run_until_idle t ?(limit = 100_000_000) () =
  let count = ref 0 in
  while step t do
    incr count;
    if !count > limit then
      failwith "Sim.run_until_idle: event limit exceeded (runaway simulation?)"
  done
