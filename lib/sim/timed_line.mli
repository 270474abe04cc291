(** The shared core of the repo's scenario languages — {!Massbft_faults}'s
    fault schedules, {!Massbft_adversary}'s adversary plans and
    {!Massbft_reconfig}'s reconfiguration plans. A document is one
    [@TIME ITEM ARG... KEY VALUE...] line per event; blank lines and
    [#] comment lines are skipped. Each language supplies only its item
    grammar, printers and domain checks; the tokens, the line framing,
    the diagnostics and the common range checks live here. *)

exception Parse_error of string
(** Raised by every parser of the scenario languages (and by
    {!Massbft_adversary.Evidence}'s record parser). Errors raised while
    reading a document are prefixed with ["line N: "] (1-based, blank
    and comment lines counted). *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Parse_error} with a formatted message. *)

(** {1 Tokens} *)

val tokens : string -> string list
(** Split on spaces, dropping empty tokens. *)

val float : string -> string -> float
(** [float what tok]; the message names [what] and the bad token. *)

val int : string -> string -> int

val gid : string -> int
(** A group in [gN] form. *)

val addr : string -> Topology.addr
(** A node in [gG/nN] form. *)

val keywords : string -> string list -> string list -> string -> string
(** [keywords item keys toks] reads the tokens after [item]'s positional
    arguments as [KEY VALUE] pairs, each key one of [keys] and given at
    most once, and returns the lookup [key -> value], which raises
    ["ITEM: missing KEY"] for an absent key. The first token that is not
    one of [keys] — a typo'd keyword, or an argument too many — raises
    ["ITEM: unexpected token TOK"]. *)

val args :
  string -> (string -> 'a) -> string list -> string list -> 'a * (string -> string)
(** [args item parse keys toks] reads [item]'s one positional argument
    with [parse], then the rest with [keywords item keys]. Raises
    ["ITEM: missing argument"] on no tokens. *)

val arg : string -> (string -> 'a) -> string list -> 'a
(** {!args} for an item that takes no keywords. *)

(** {1 Lines} *)

val read : (float -> string list -> 'e) -> string -> 'e list
(** [read item text] parses a document: [item at toks] builds one event
    from a line's time and the tokens after it. A line without the
    [@TIME] prefix, or one [item] rejects, raises {!Parse_error} naming
    its line number. *)

val line : float -> string -> string
(** ["@TIME ITEM"], the time printed with [%g] (which round-trips every
    value the generators emit: times are quantized to 1 ms). *)

val write : ('e -> string) -> 'e list -> string
(** One line per event, each terminated by a newline. *)

val item_name : string -> string
(** The dashed text-form name of a snake_case kind label
    (["crash_node"] -> ["crash-node"]). *)

val fl : float -> string
(** [%g]: the printers' float format. *)

val sorted : ('e -> float) -> 'e list -> 'e list
(** Stable sort by time. *)

(** {1 Validation} *)

val ( >>= ) :
  (unit, string) result -> (unit -> (unit, string) result) -> (unit, string) result

val all : ('a -> (unit, string) result) -> 'a list -> (unit, string) result
(** The first error, checking in list order. *)

val check_group : string -> ng:int -> int -> (unit, string) result
(** ["WHAT: group G out of range"] unless [0 <= g < ng]. *)

val check_addr :
  string -> group_sizes:int array -> Topology.addr -> (unit, string) result

val check_window : string -> float -> (unit, string) result
(** ["WHAT: duration must be positive"] unless finite and positive. *)

val check_time : string -> float -> (unit, string) result
(** ["WHAT: negative time"] unless finite and non-negative. *)
