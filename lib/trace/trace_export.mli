(** Exporters for {!Trace} buffers.

    [to_chrome_json] renders the Chrome [trace_event] JSON array format
    understood by [chrome://tracing] and {{:https://ui.perfetto.dev}
    Perfetto}: groups become processes, nodes become threads, spans
    become async begin/end pairs keyed by their span id, instants and
    counters map to their native phases. Output is a pure function of
    the buffer contents — same events in, same bytes out — so traces
    from a fixed seed are byte-identical across runs.

    [critical_path_report] renders a plain-text per-entry breakdown:
    for every traced entry (category ["entry.phase"] spans), each
    lifecycle phase is listed with its duration and the single
    longest-overlapping resource span (NIC queue/transmit, CPU
    wait/run, WAN propagation) — i.e. the resource the phase most
    plausibly waited on. *)

val to_chrome_json : ?host:Trace.t -> Trace.t -> string
(** [host] is a second sink whose timestamps are {e host} seconds (as
    produced by [Prof_export.to_trace]); its events are appended under
    a separate pid ([1000], named ["host: simulator"]) so one file
    shows the simulated and host timelines side by side. *)

val write_chrome_json : ?host:Trace.t -> Trace.t -> string -> unit
(** [write_chrome_json t path] writes {!to_chrome_json} to [path]. *)

val critical_path_report : ?limit:int -> Trace.t -> string
(** At most [limit] (default 10) entries, in first-traced order; a
    header line reports buffer totals and span balance. *)
