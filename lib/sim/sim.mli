(** The discrete-event simulation core.

    All protocol, network and CPU activity in this repository runs on
    virtual time driven by this event loop. Events at equal timestamps
    fire in insertion order, making every run bit-for-bit reproducible
    from its RNG seeds — which the test suite exploits to assert
    protocol-level invariants over thousands of schedules.

    One event heap, one clock and one seq counter drive the whole sim.
    [create ~shards:n] additionally hands out [n] shard handles — one
    per group in the harness — that are accounting identities only:
    each keeps its own pending/dispatched counts and its own trace
    counter track, while every handle schedules into (and can drive)
    the same queue. *)

type t
(** A shard handle. A single-shard sim ([create ()]) has one handle;
    all handles of one sim share its queue and clock. *)

type timer
(** A cancellable handle for a scheduled event. *)

val create : ?shards:int -> ?lookahead:float -> unit -> t
(** [create ~shards ~lookahead ()] builds a simulator with [shards]
    (default 1) shard handles; returns shard 0. [lookahead] (default 0)
    is the slice stride a profiled {!run} reports at — the harness
    passes the minimum WAN one-way latency. Raises [Invalid_argument]
    on [shards < 1] or a negative lookahead. *)

val shard : t -> int -> t
(** [shard t i] is shard [i] of [t]'s simulator.
    Raises [Invalid_argument] if out of range. *)

val n_shards : t -> int

val lookahead : t -> float
(** The profiling slice stride this sim was created with. *)

val now : t -> float
(** Current virtual time in seconds; the same on every handle. *)

val set_trace : t -> Massbft_trace.Trace.t -> unit
(** Attaches a trace sink (shared by all shards); the dispatcher then
    emits sampled ["sim"]-category counters (events dispatched, events
    pending) at most every 100 simulated ms per shard. Multi-shard sims
    tag each shard's counter track with [gid = shard id]. Tracing never
    schedules events, so it cannot change the simulation. Defaults to
    the disabled {!Massbft_trace.Trace.null}. *)

(** {1 Host-side self-profiling hook}

    Where [set_trace] records {e simulated} time, [set_prof] accounts
    where the {e host's} wall-clock goes while the simulator runs. A
    profiled {!run} advances in [lookahead]-wide slices and reports
    each one; with the default [None] the driver loop is exactly the
    uninstrumented code path. Attaching a profiler never schedules
    events or reads simulation state, so profiled runs stay
    byte-identical to unprofiled ones (golden-fixture verified). *)

type host_prof = {
  hp_clock : unit -> float;
      (** host-time source in seconds; must be monotonic *)
  hp_seq : until:float -> dt:float -> events:int -> unit;
      (** one profiled slice of {!run} (sliced at lookahead width when
          the sim has one, else the whole range) *)
}

val set_prof : t -> host_prof option -> unit
(** Attaches (or clears) the host-profiling sink, shared by all
    shards. *)

val dispatched : t -> int
(** Events fired on this shard since creation (cancelled excluded). *)

val dispatched_total : t -> int
(** Events fired across all shards. *)

val at : t -> float -> (unit -> unit) -> timer
(** [at t time f] schedules [f] to run at absolute virtual [time],
    accounted to shard [t]. Raises [Invalid_argument] if [time] is in
    the past. *)

val after : t -> float -> (unit -> unit) -> timer
(** [after t delay f] schedules [f] in [delay >= 0] seconds. *)

val cancel : timer -> unit
(** Cancelling an already-fired or cancelled timer is a no-op.
    Cancelled events are lazily deleted: they stay in the queue until
    popped, but once they outnumber the live events the queue compacts
    them away in one O(n) pass, so cancel is amortized O(1) and queue
    size tracks live events rather than lifetime scheduling volume. *)

val pending : t -> int
(** Number of scheduled (uncancelled, unfired) events on this shard.
    Maintained incrementally — O(1), safe to poll from samplers. *)

val pending_total : t -> int
(** Scheduled events across all shards. *)

val heap_size : t -> int
(** Physical size of the event heap, including cancelled events
    awaiting compaction. Exposed so tests can assert the lazy-deletion
    bound ([heap_size <= 2 * pending_total + slack]); use {!pending}
    for the semantic count. *)

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
