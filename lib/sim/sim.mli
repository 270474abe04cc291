(** The discrete-event simulation core.

    All protocol, network and CPU activity in this repository runs on
    virtual time driven by this event loop. Events at equal timestamps
    fire in insertion order, making every run bit-for-bit reproducible
    from its RNG seeds — which the test suite exploits to assert
    protocol-level invariants over thousands of schedules.

    Events cannot be cancelled: a timer that may turn out unneeded is a
    guard that checks its condition again when it fires, so an event
    costs only its closure.

    One event heap, one clock and one seq counter drive the whole sim.
    [create ~shards:n] additionally hands out [n] shard handles — one
    per group in the harness — that are accounting identities only:
    each keeps its own pending/dispatched counts and its own trace
    counter track, while every handle schedules into (and can drive)
    the same queue.

    The simulator never reads the host clock. Host-side profiling
    drives it from outside: [Massbft_prof.Prof.run] calls {!run} once
    per [lookahead]-wide slice and times each call. *)

type t
(** A shard handle. A single-shard sim ([create ()]) has one handle;
    all handles of one sim share its queue and clock. *)

val create : ?shards:int -> ?lookahead:float -> unit -> t
(** [create ~shards ~lookahead ()] builds a simulator with [shards]
    (default 1) shard handles; returns shard 0. [lookahead] (default 0)
    is the slice stride [Massbft_prof.Prof.run] drives {!run} at — the
    harness passes the minimum WAN one-way latency. Raises
    [Invalid_argument] on [shards < 1] or a negative lookahead. *)

val shard : t -> int -> t
(** [shard t i] is shard [i] of [t]'s simulator.
    Raises [Invalid_argument] if out of range. *)

val n_shards : t -> int

val lookahead : t -> float
(** The slice stride this sim was created with. *)

val now : t -> float
(** Current virtual time in seconds; the same on every handle. *)

val set_trace : t -> Massbft_trace.Trace.t -> unit
(** Attaches a trace sink (shared by all shards); the dispatcher then
    emits sampled ["sim"]-category counters (events dispatched, events
    pending) at most every 100 simulated ms per shard. Multi-shard sims
    tag each shard's counter track with [gid = shard id]. Tracing never
    schedules events, so it cannot change the simulation. Defaults to
    the disabled {!Massbft_trace.Trace.null}. *)

val dispatched : t -> int
(** Events fired on this shard since creation. *)

val dispatched_total : t -> int
(** Events fired across all shards. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t time f] schedules [f] to run at absolute virtual [time],
    accounted to shard [t]. Raises [Invalid_argument] if [time] is in
    the past or NaN. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t delay f] schedules [f] in [delay >= 0] seconds; a
    negative or NaN delay raises [Invalid_argument]. *)

val pending : t -> int
(** Number of scheduled, unfired events on this shard. Maintained
    incrementally — O(1), safe to poll from samplers. *)

val pending_total : t -> int
(** Scheduled events across all shards: the size of the event heap. *)

val run : t -> until:float -> unit
(** Executes events in (time, seq) order until the queue is empty or
    the next event is beyond [until]; then advances the clock to
    [until]. *)

val run_until_idle : t -> ?limit:int -> unit -> unit
(** Executes events until none remain. [limit] (default 100 million)
    bounds the number of events as a runaway guard; exceeding it raises
    [Failure]. *)

val step : t -> bool
(** Executes the single next event; [false] when empty. *)
