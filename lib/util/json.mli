(** The repo's one JSON module: the string and number formats every
    exporter writes with, and a minimal recursive-descent reader for
    reading our own documents back (the repo carries no JSON
    dependency). *)

(** {1 Writing} *)

val add_quoted : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal: quotes, backslashes, newlines,
    tabs and carriage returns escaped, other control characters as
    [\u00XX]. *)

val quote : string -> string
(** {!add_quoted} into a fresh string. *)

val number : float -> string
(** Integral values below 1e15 without a fraction ([%.0f]), everything
    else with [%.9g]. *)

val obj : (string * string) list -> string
(** [{"k":v,...}] from rendered values, in order, with no whitespace. *)

val arr : string list -> string
(** [[v,...]] from rendered values, with no whitespace. *)

(** {1 Reading} *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error} on malformed input (including trailing
    bytes). *)

val of_file : string -> t

val member : string -> t -> t option
(** Field lookup; [None] on non-objects and absent keys. *)

val to_float : t -> float option
val to_string : t -> string option
val to_list : t -> t list option
