(** Host-side self-profiling of the simulator.

    Everything else in the observability stack ([massbft_trace],
    [massbft_obs]) measures {e simulated} time; this module accounts
    where the host's {e wall-clock} goes while the simulator produces
    those simulated seconds.

    The profiler is a driver, not a hook: {!run} takes the place of
    {!Massbft_sim.Sim.run} and calls it once per lookahead-wide slice,
    reading the monotonic clock and [Gc.quick_stat] around each call.
    It never schedules events or reads simulation state, and slicing
    leaves the dispatch order untouched, so profiled runs stay
    byte-identical to unprofiled ones. *)

type t
(** A profiler: totals plus the slice log. *)

val create : unit -> t

val run : t -> Massbft_sim.Sim.t -> until:float -> unit
(** [run p sim ~until] is [Sim.run sim ~until], driven in slices of
    [Sim.lookahead sim] simulated seconds; the last slice ends at
    [until]. With no lookahead, or an infinite [until], it takes one
    slice. Every slice is logged. *)

(** {1 Raw slice log} *)

type slice = {
  s_end : float;  (** simulated time at the slice's end *)
  s_host_t0 : float;  (** host seconds since the first slice started *)
  s_wall : float;  (** host wall time of the slice *)
  s_events : int;
  s_gc_minor : int;  (** [Gc.quick_stat] deltas over the slice *)
  s_gc_major : int;
  s_gc_promoted_w : float;
}

val slices : t -> slice list
(** Oldest first. *)

(** {1 Derived report} *)

type report = {
  rp_shards : int;
  rp_slices : int;
  rp_lookahead : float;  (** the slice stride *)
  rp_wall_s : float;  (** sum of the slice walls *)
  rp_sim_end_s : float;
  rp_events : int;
  rp_events_per_slice : float;
  rp_gc_minor : int;
  rp_gc_major : int;
  rp_gc_promoted_w : float;
}

val report : t -> report
(** Wall time is the time spent inside {!run}'s slices, so engine
    construction before the run and metric extraction after it are
    outside it. *)

val register : t -> Massbft_obs.Registry.t -> unit
(** Exposes the live totals as polled series
    ([massbft_prof_wall_seconds], [massbft_prof_slices_total],
    [massbft_prof_events_total], [massbft_prof_gc_minor_total]) so prof
    data rides the existing Prometheus-text exporter unchanged. *)
