(** Host-side self-profiling of the simulator.

    Everything else in the observability stack ([massbft_trace],
    [massbft_obs]) measures {e simulated} time; this module accounts
    where the host's {e wall-clock} goes while the simulator produces
    those simulated seconds. A profiled run advances in
    lookahead-wide slices; per slice the profiler records wall time,
    events dispatched and [Gc.quick_stat] deltas, and derives a ranked
    wall-time attribution in the style of [Saturation].

    The collection side rides the {!Massbft_sim.Sim.host_prof} hook
    record: two monotonic-clock reads per slice, never per-event work,
    so profiled runs remain byte-identical to unprofiled ones. *)

val monotonic : unit -> float
(** CLOCK_MONOTONIC in seconds (bechamel's noalloc stub). *)

type t
(** A profiler: accumulators plus the slice log. One profiler
    instruments one simulator for one run. *)

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] (default {!monotonic}) exists so tests can drive the
    profiler with a deterministic virtual host clock. *)

val attach : t -> Massbft_sim.Sim.t -> unit
(** Installs the profiler's hook via [Sim.set_prof]. Must happen before
    the run; raises [Invalid_argument] if this profiler is already
    attached. *)

val finish : t -> unit
(** Freezes the wall-clock endpoint used by {!report}. Idempotent;
    calling {!report} without [finish] uses the current time. *)

(** {1 Raw slice log} *)

type slice = {
  s_end : float;  (** simulated time at the slice's end *)
  s_host_t0 : float;  (** host seconds since profiling started *)
  s_wall : float;  (** host wall time of the slice *)
  s_events : int;
  s_gc_minor : int;  (** [Gc.quick_stat] deltas over the slice *)
  s_gc_major : int;
  s_gc_promoted_w : float;
}

val slices : t -> slice list
(** Oldest first. *)

(** {1 Derived report} *)

type phase = { p_name : string; p_seconds : float; p_share : float }

type report = {
  rp_shards : int;
  rp_slices : int;
  rp_lookahead : float;  (** the slice stride *)
  rp_wall_s : float;  (** first slice start .. {!finish} *)
  rp_sim_end_s : float;
  rp_events : int;
  rp_events_per_slice : float;
  rp_attributed_s : float;  (** sum of slice walls *)
  rp_attributed_share : float;  (** attributed / wall; the >= 95% figure *)
  rp_wall_attribution : phase list;
      (** ranked: [execute] (the slices) and [unattributed] *)
  rp_gc_minor : int;
  rp_gc_major : int;
  rp_gc_promoted_w : float;
}

val report : t -> report
(** Wall time runs from the first slice's start to {!finish} (or now),
    so engine construction and topology setup before the first event
    are deliberately outside the attribution denominator. *)

val register : t -> Massbft_obs.Registry.t -> unit
(** Exposes the live accumulators as polled series
    ([massbft_prof_phase_seconds{phase="execute"}],
    [massbft_prof_slices_total], [massbft_prof_events_total],
    [massbft_prof_gc_minor_total]) so prof data rides the existing
    Prometheus-text exporter unchanged. *)
