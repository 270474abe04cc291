module Trace = Massbft_trace.Trace

(* One event heap, one clock, one seq counter. Events fire in (time,
   seq) order, and seqs are handed out in scheduling order, so events at
   equal timestamps fire FIFO and every run is reproducible from its
   seeds. Shard handles are per-group accounting identities on top of
   the one queue: each keeps its own pending/dispatched counts and its
   own trace-counter track, and any handle drives the whole sim. *)

type t = {
  sid : int;
  core : core;
  mutable live : int;  (* scheduled on this shard, not yet fired *)
  mutable dispatched : int;
  mutable last_trace_at : float;
}

(* The first [size] entries of [times], [seqs] and [slots] form a binary
   min-heap in (time, seq) order; entry [i]'s event is the closure
   [fns.(slots.(i))], accounted to shard [sids.(slots.(i))]. Sifts move
   unboxed floats and ints only, so no sift step pays the write barrier:
   an event's closure and shard id are written once when it is
   scheduled, and its slot is reset (to [ignore]) and returned to the
   [free] stack once when it fires. All six arrays share one capacity. *)
and core = {
  mutable shards : t array;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable fns : (unit -> unit) array;
  mutable sids : int array;
  mutable free : int array;  (* [free.(0 .. n_free-1)]: unused slots *)
  mutable n_free : int;
  lookahead : float;
  mutable clock : float;
  mutable next_seq : int;
  mutable trace : Trace.t;
}

(* Hole-based sifts: they compare unboxed times, read seqs only on an
   exact tie, move the displaced parents/children and write the sifted
   entry once where it lands. Seqs are unique, so (time, seq) is a
   strict total order and any correct heap pops events in exactly one
   sequence. *)

(* Sifts up the entry just stored at [i]. It carries the newest seq, so
   on a time tie it is never earlier than its parent: only times are
   compared on the way up. *)
let sift_up c i =
  let times = c.times and seqs = c.seqs and slots = c.slots in
  let t = Float.Array.unsafe_get times i
  and seq = Array.unsafe_get seqs i
  and slot = Array.unsafe_get slots i in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Float.Array.unsafe_get times p in
    if t < pt then begin
      Float.Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else moving := false
  done;
  Float.Array.unsafe_set times !i t;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* Sifts the entry at [src] down from [i] within the first [size]. *)
let sift_down c size i src =
  let times = c.times and seqs = c.seqs and slots = c.slots in
  let t = Float.Array.unsafe_get times src
  and seq = Array.unsafe_get seqs src
  and slot = Array.unsafe_get slots src in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= size then moving := false
    else begin
      let r = l + 1 in
      let ch =
        if r < size then begin
          let lt = Float.Array.unsafe_get times l
          and rt = Float.Array.unsafe_get times r in
          if rt < lt
             || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let ct = Float.Array.unsafe_get times ch
      and cseq = Array.unsafe_get seqs ch in
      if ct < t || (ct = t && cseq < seq) then begin
        Float.Array.unsafe_set times !i ct;
        Array.unsafe_set seqs !i cseq;
        Array.unsafe_set slots !i (Array.unsafe_get slots ch);
        i := ch
      end
      else moving := false
    end
  done;
  Float.Array.unsafe_set times !i t;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* Doubles the capacity (256 at first); the new slots go on the free
   stack. *)
let grow c =
  let cap = Array.length c.seqs in
  let cap' = if cap = 0 then 256 else 2 * cap in
  let times = Float.Array.create cap' and seqs = Array.make cap' 0
  and slots = Array.make cap' 0 and fns = Array.make cap' ignore
  and sids = Array.make cap' 0 and free = Array.make cap' 0 in
  Float.Array.blit c.times 0 times 0 c.size;
  Array.blit c.seqs 0 seqs 0 c.size;
  Array.blit c.slots 0 slots 0 c.size;
  Array.blit c.fns 0 fns 0 cap;
  Array.blit c.sids 0 sids 0 cap;
  Array.blit c.free 0 free 0 c.n_free;
  for slot = cap' - 1 downto cap do
    free.(c.n_free) <- slot;
    c.n_free <- c.n_free + 1
  done;
  c.times <- times;
  c.seqs <- seqs;
  c.slots <- slots;
  c.fns <- fns;
  c.sids <- sids;
  c.free <- free

let create ?(shards = 1) ?(lookahead = 0.0) () =
  if shards < 1 then invalid_arg "Sim.create: shards must be >= 1";
  if lookahead < 0.0 then invalid_arg "Sim.create: negative lookahead";
  let core =
    {
      shards = [||];
      times = Float.Array.create 0;
      seqs = [||];
      slots = [||];
      size = 0;
      fns = [||];
      sids = [||];
      free = [||];
      n_free = 0;
      lookahead;
      clock = 0.0;
      next_seq = 0;
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

let past time now =
  invalid_arg
    (Printf.sprintf "Sim.at: scheduling in the past or at NaN (%.9f < %.9f)"
       time now)

(* Inlined into [at] and [after], so a time computed by [after] is
   stored without being boxed. The slot bookkeeping keeps its bounds
   checks: a lost slot fails loudly instead of corrupting memory. *)
let[@inline] schedule t time fn =
  let c = t.core in
  (* One comparison rejects both the past and NaN. *)
  if not (time >= c.clock) then past time c.clock;
  let i = c.size in
  if i = Array.length c.seqs then grow c;
  c.n_free <- c.n_free - 1;
  let slot = c.free.(c.n_free) in
  c.fns.(slot) <- fn;
  c.sids.(slot) <- t.sid;
  c.size <- i + 1;
  Float.Array.unsafe_set c.times i time;
  Array.unsafe_set c.seqs i c.next_seq;
  Array.unsafe_set c.slots i slot;
  c.next_seq <- c.next_seq + 1;
  sift_up c i;
  t.live <- t.live + 1

let at t time fn = schedule t time fn

let after t delay fn =
  if delay < 0.0 then invalid_arg "Sim.after: negative delay";
  schedule t (t.core.clock +. delay) fn

let pending t = t.live
let pending_total t = t.core.size

(* Pops the minimum, advances the clock to its time and runs it; the
   heap must be non-empty. *)
let fire_next c =
  let slot = c.slots.(0) in
  let fn = c.fns.(slot) and s = c.shards.(c.sids.(slot)) in
  c.fns.(slot) <- ignore;
  c.free.(c.n_free) <- slot;
  c.n_free <- c.n_free + 1;
  c.clock <- Float.Array.get c.times 0;
  let n = c.size - 1 in
  c.size <- n;
  if n > 0 then sift_down c n 0 n;
  s.live <- s.live - 1;
  s.dispatched <- s.dispatched + 1;
  let tr = c.trace in
  if Trace.enabled tr && c.clock -. s.last_trace_at >= trace_counter_period
  then begin
    (* One throttle per shard, and on multi-shard sims one counter
       track per shard (gid = shard id), so each group's load reads
       as its own track in the Perfetto export. *)
    let time = c.clock in
    s.last_trace_at <- time;
    let gid = if Array.length c.shards = 1 then None else Some s.sid in
    Trace.counter tr ~ts:time ~cat:"sim" ?gid "dispatched"
      (float_of_int s.dispatched);
    Trace.counter tr ~ts:time ~cat:"sim" ?gid "pending" (float_of_int s.live)
  end;
  fn ()

let run t ~until =
  let c = t.core in
  while c.size > 0 && Float.Array.get c.times 0 <= until do
    fire_next c
  done;
  if c.clock < until then c.clock <- until

let step t =
  let c = t.core in
  if c.size = 0 then false
  else begin
    fire_next c;
    true
  end

let run_until_idle t ?(limit = 100_000_000) () =
  let count = ref 0 in
  while step t do
    incr count;
    if !count > limit then
      failwith "Sim.run_until_idle: event limit exceeded (runaway simulation?)"
  done
