(** Renders a {!Registry.t} snapshot in interchange formats. Both
    exporters are deterministic: series order comes from
    {!Registry.collect} and floats use fixed formats, so equal
    registries produce byte-identical text. *)

val prometheus : Registry.t -> string
(** Prometheus text exposition (version 0.0.4): one [# HELP] (when
    non-empty) and [# TYPE] line per family, then one line per series.
    Histograms expand to cumulative [_bucket] lines with [le] labels
    (plus [+Inf]), [_sum] and [_count]. Label values are escaped per
    the format (backslash, double quote, newline). *)

val json : Registry.t -> string
(** A JSON array of series objects with [name], [kind], [labels], and
    either [value] or [buckets]/[sum]/[count] fields. *)

val escape_label_value : string -> string
(** Exposed for the round-trip parser test. *)
