(** A multi-core CPU model: [cores] parallel servers fed from a FIFO
    queue. Transaction signature verification during local PBFT
    consensus is the dominant CPU cost in the paper (it caps MassBFT's
    scaling beyond 16 nodes per group, Figure 13a, and throttles TPC-C,
    Figure 8d), so compute time must be a first-class simulated
    resource, not free. *)

type t

val create : Sim.t -> cores:int -> t

val submit : t -> seconds:float -> (unit -> unit) -> unit
(** [submit t ~seconds k] enqueues a task needing [seconds] of
    single-core compute; [k] runs at its completion. Tasks start in FIFO
    order on the earliest-free core. The cost is stretched by the
    current {!set_speed_factor} at submission time. It is
    [submit_parallel ~slices:1]. *)

val submit_parallel :
  t -> slices:int -> seconds:float -> (unit -> unit) -> unit
(** [submit_parallel t ~slices ~seconds k] splits [seconds] of compute
    into [slices] equal tasks, reserves each exactly as {!submit} would
    (earliest-free core, speed factor, busy accounting, trace spans),
    and runs [k] once, when the latest slice finishes. It schedules one
    event instead of one per slice. That event fires exactly where the
    last slice's completion would have in (time, seq) order, because
    the slices are reserved back to back with nothing scheduled in
    between. Raises [Invalid_argument] on [slices < 1] or a negative
    duration. *)

val set_speed_factor : t -> float -> unit
(** Gray-failure hook: stretch every subsequently submitted task by
    [factor] (a degraded node computing at [1/factor] speed). Must be
    finite and [>= 1]; [1.0] (the default and the exact-identity
    multiplier) restores nominal speed. Tasks already on a core keep
    their original cost — the factor models the machine slowing down,
    not history rewriting. *)

val set_trace : t -> Massbft_trace.Trace.t -> gid:int -> node:int -> unit
(** Attaches a trace sink and this CPU's owning node. Every subsequent
    task (each slice of a {!submit_parallel}) then emits
    ["cpu"]-category spans: a [wait] span when it queues behind busy
    cores and a [run] span for its execution, both tagged with the
    chosen core. Defaults to the disabled sink. *)

val utilization : t -> since:float -> float
(** Fraction of core-time busy since virtual time [since] (diagnostic;
    in [0, 1] once the window is non-empty). Work is accounted at
    {!submit} time, so a window that admits a long task reports the
    whole task's cost even if it finishes later; 0 when the window is
    empty or inverted. *)

val busy_seconds : t -> float
(** Total core-seconds of work accepted so far. *)

val queue_depth : t -> int
(** Number of submitted tasks (each slice of a {!submit_parallel}
    counts as one) that have not finished yet — running plus queued. A
    slice that ends before its charge's completion leaves the count at
    its own finish time: once [now] reaches that time. The
    observability sampler polls this as the per-node CPU queue-depth
    gauge. *)
