(** Rendering for {!Prof}: text report, JSON document, and a
    host-timeline trace sink for the dual-timeline Perfetto export. *)

val schema_version : int
(** Version of the JSON document layout (currently 2). *)

val text : Prof.report -> string
(** Ranked "where the wall time went" listing in the style of
    [Saturation.report], plus GC totals. *)

val json : ?slices:bool -> Prof.t -> string
(** The full report as a single-line JSON object ([schema_version],
    slice and event totals, ranked attribution, GC deltas). [slices]
    (default false) appends the raw per-slice log under
    ["slice_log"]. *)

val write_json : ?slices:bool -> Prof.t -> string -> unit

val to_trace : Prof.t -> Massbft_trace.Trace.t
(** Renders the slice log as host-time spans (category ["host.sim"],
    one ["slice"] span per profiled slice) with timestamps in host
    seconds since the first profiled slice. Pass the result as [?host]
    to {!Massbft_trace.Trace_export.write_chrome_json} to get one
    Perfetto file showing sim and host timelines side by side. *)
