(** A network-interface serializer: a FIFO queue draining at a fixed bit
    rate. Each simulated node owns four of these (WAN up/down, LAN
    up/down); the WAN uplink at 20 Mbps is precisely the resource whose
    exhaustion produces the paper's leader bottleneck (Figures 1b and
    13a). *)

type t

type cls = Bulk | Ctrl
(** The two service classes (separate TCP streams in a real
    deployment): [Bulk] carries entry chunks and copies, [Ctrl] carries
    votes, acks and consensus metadata. *)

val create : Sim.t -> bandwidth_bps:float -> t
(** [create sim ~bandwidth_bps] is an idle NIC. Bandwidth must be
    positive. *)

val bandwidth : t -> float

val set_bandwidth : t -> float -> unit
(** Takes effect for subsequently enqueued transmissions (Figure 14's
    mid-experiment bandwidth mix is configured before the run). *)

val reserve : bulk:bool -> t -> bytes:int -> float
(** [reserve t ~bytes] enqueues a [bytes]-sized frame and returns the
    virtual time at which its last bit leaves the interface. Frames
    drain in FIFO order at the configured rate within their class. The
    byte and busy-time counters and the trace spans are updated at
    once; nothing is scheduled, so a caller that knows what happens
    after the frame leaves (like {!Topology.send}'s propagation leg)
    can schedule that directly. Raises [Invalid_argument] on a negative
    size.

    [bulk] selects the service class; it is a plain [bool], not an
    optional argument, so the per-message path boxes nothing to pass
    it. Control frames
    (votes, acks, consensus metadata) and bulk frames (entry chunks and
    copies) model separate TCP streams: a small control frame is never
    stuck behind a deep bulk queue, which is how real deployments behave
    and what keeps consensus live when a slow group's link saturates.
    Bulk capacity is unaffected in practice because control traffic is a
    negligible byte fraction. *)

val transmit : ?bulk:bool -> t -> bytes:int -> (unit -> unit) -> unit
(** [transmit t ~bytes k] is {!reserve} followed by one event that runs
    [k] at the returned finish time. [bulk] defaults to [false]. *)

val set_trace : t -> Massbft_trace.Trace.t -> gid:int -> node:int -> link:string -> unit
(** Attaches a trace sink and this NIC's identity. Every subsequent
    {!reserve} then emits ["nic"]-category spans: a [queue] span when
    the frame waits behind the class queue, and an [xmit] span for its
    serialization; both carry the link label (suffixed [".bulk"] for
    the bulk class) and frame size. Defaults to the disabled sink. *)

val ctrl_busy_until : t -> float
(** Same for the control-class queue. *)

val bytes_sent : t -> int
(** Cumulative bytes accepted by this NIC across both service classes,
    for traffic accounting (Figure 10). *)

val class_bytes_sent : t -> cls -> int
(** Per-class slice of {!bytes_sent}. *)

val class_busy_seconds : t -> cls -> float
(** Cumulative serialization time accepted by a class's queue. Work is
    accounted at enqueue time (like {!Cpu.busy_seconds}), so a delta of
    this value over a sampling window is the window's *offered* load —
    the observability sampler divides it by the window length and caps
    at 1.0 to get a busy fraction. *)

val backlog_s : t -> float
(** Seconds until this NIC is fully drained — the *maximum* over both
    class queues (each class serializes independently at the full
    rate); 0 when idle. *)

val class_backlog_s : t -> cls -> float
(** Seconds of queued transmission in one class. *)
