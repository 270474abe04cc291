(** A registry of labeled instruments, the aggregate counterpart to
    [massbft_trace]'s per-event view. Instruments are keyed by
    [(name, labels)]: one metric {e family} per name (with a single
    HELP/TYPE), one {e series} per distinct label set, mirroring the
    Prometheus data model every production consensus deployment
    exports.

    Registration happens once, at [Engine.create]/[Sampler] setup time;
    the returned handles are then updated with plain field writes, so
    the instrumented hot path costs one store per update and allocates
    nothing. *)

type t

val create : unit -> t

type labels = (string * string) list
(** Label pairs. Order is irrelevant: series identity uses the
    key-sorted form. Duplicate keys keep an arbitrary single entry. *)

type kind = Counter | Gauge

val kind_to_string : kind -> string

(** {1 Instruments}

    Registering two series with the same name must use the same
    instrument kind, and the same [(name, labels)] pair may only be
    registered once; violations raise [Invalid_argument]. Metric names
    must match [[A-Za-z_][A-Za-z0-9_]*]. *)

type counter
(** A monotonically non-decreasing integer. *)

val counter : t -> name:string -> ?help:string -> labels -> counter
val inc : ?by:int -> counter -> unit
(** [by] defaults to 1 and must be non-negative. *)

val counter_value : counter -> int

val counter_fn : t -> name:string -> ?help:string -> labels -> (unit -> int) -> unit
(** A polled counter, evaluated at {!collect} time: for monotonic
    totals that already live in protocol state (committed transactions,
    executed entries) — same read-only rationale as {!gauge_fn}. *)

type gauge
(** A settable float (last write wins). *)

val gauge : t -> name:string -> ?help:string -> labels -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val gauge_fn : t -> name:string -> ?help:string -> labels -> (unit -> float) -> unit
(** A polled gauge: the closure is evaluated at {!collect} time. Used
    for values that already live in protocol state (queue lengths,
    roles) so sampling stays read-only. *)

(** {1 Snapshots}

    Exporters consume an immutable snapshot; polled gauges are
    evaluated here. *)

type point = P_counter of int | P_gauge of float

type sample = { name : string; help : string; kind : kind; labels : labels; point : point }

val collect : t -> sample list
(** All series, sorted by name then by label set — deterministic across
    runs, so exported text is byte-stable. *)
