(** Structured event tracing for simulated runs.

    A {!t} is a sink of typed events — span begin/end pairs, instants,
    and counters — each stamped with the *virtual* simulation time and
    optionally correlated to a node ([gid]/[node]) and to a log entry
    ([eid], the paper's (group, sequence) identity). Events land in a
    bounded ring buffer: when it fills, the oldest events are
    overwritten and {!dropped} counts them, so tracing never grows
    memory on long runs and never changes simulation behaviour (no
    events are scheduled, no I/O happens until export).

    The subsystem defaults to off: every instrumentation site holds
    {!null}, a permanently disabled sink whose emit functions return
    after a single branch. Attach a real sink (e.g. through
    [Engine.set_trace]) to record.

    Determinism: event payloads carry only virtual timestamps and
    deterministically allocated sequence/span ids, so two runs from the
    same seed produce byte-identical exports — a property the test
    suite uses as a determinism regression detector. *)

type value = Int of int | Float of float | Str of string

type kind =
  | Span_begin  (** opens the span whose id is in [span] *)
  | Span_end  (** closes it; carries the same [span] id and name *)
  | Instant
  | Counter of float

type event = {
  ev_seq : int;  (** emission order, globally unique per sink *)
  ts : float;  (** virtual time, seconds *)
  kind : kind;
  name : string;
  cat : string;  (** category: "sim", "nic", "cpu", "net", "entry", ... *)
  gid : int;  (** owning group, or -1 when not node-scoped *)
  node : int;  (** node within the group, or -1 *)
  span : int;  (** correlates Span_begin/Span_end; 0 otherwise *)
  e_gid : int;  (** entry correlation id (gid part), or -1 *)
  e_seq : int;  (** entry correlation id (seq part), or -1 *)
  args : (string * value) list;
}

type t

val null : t
(** The shared disabled sink; every emit on it is a no-op. *)

val create : ?capacity:int -> unit -> t
(** A live sink holding at most [capacity] (default 262144) events.
    Raises [Invalid_argument] on a non-positive capacity. *)

val set_clock : t -> (unit -> float) -> unit
(** Installs the virtual-clock source used when an emit omits [?ts]
    (typically [fun () -> Sim.now sim]). No-op on {!null}. *)

val enabled : t -> bool
(** [false] exactly for {!null}; instrumentation sites check this
    before building argument lists. *)

val capacity : t -> int
val length : t -> int
(** Events currently retained (at most [capacity]). *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val emitted : t -> int
(** Total events ever emitted, retained or dropped. *)

val clear : t -> unit
(** Empties the buffer and resets the drop counter (span and sequence
    ids keep advancing so correlation stays unambiguous). *)

val events : t -> event list
(** Retained events, oldest first. *)

val instant :
  t ->
  ?ts:float ->
  ?cat:string ->
  ?gid:int ->
  ?node:int ->
  ?eid:int * int ->
  ?args:(string * value) list ->
  string ->
  unit

val counter :
  t ->
  ?ts:float ->
  ?cat:string ->
  ?gid:int ->
  ?node:int ->
  string ->
  float ->
  unit

val span :
  t ->
  ?cat:string ->
  ?gid:int ->
  ?node:int ->
  ?eid:int * int ->
  ?args:(string * value) list ->
  b:float ->
  e:float ->
  string ->
  unit
(** [span t ~b ~e name] records a closed span as a Span_begin/Span_end
    pair sharing a fresh span id — the common case in a discrete-event
    simulation, where both endpoints are known at emission time.
    Raises [Invalid_argument] if [e < b]. *)

type open_span
(** Handle for a span whose end is not yet known. *)

val span_begin :
  t ->
  ?ts:float ->
  ?cat:string ->
  ?gid:int ->
  ?node:int ->
  ?eid:int * int ->
  ?args:(string * value) list ->
  string ->
  open_span
(** Emits a Span_begin and returns the handle to close it with. On a
    disabled sink the handle is inert. *)

val span_end : t -> ?ts:float -> ?args:(string * value) list -> open_span -> unit
(** Emits the matching Span_end (same id, name and identity as the
    begin). No-op for an inert handle. *)
