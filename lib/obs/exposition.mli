(** Renders a {!Registry.t} snapshot in interchange formats. Both
    exporters are deterministic: series order comes from
    {!Registry.collect} and floats use fixed formats, so equal
    registries produce byte-identical text. *)

val prometheus : Registry.t -> string
(** Prometheus text exposition (version 0.0.4): one [# HELP] (when
    non-empty) and [# TYPE] line per family, then one line per series.
    Label values are escaped per the format (backslash, double quote,
    newline). *)

val json : Registry.t -> string
(** A JSON array of series objects with [name], [kind], [labels] and
    [value] fields. *)
