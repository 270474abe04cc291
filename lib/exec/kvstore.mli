(** The in-memory database state: a hash table with lazy default
    materialization. The paper stores states in in-memory hash tables;
    here cold rows (e.g. SmallBank's million initial balances) are
    produced on first touch by an initializer instead of being
    physically preloaded, which preserves execution semantics while
    keeping simulations light (see DESIGN.md substitutions).

    Layout: open addressing with linear probing over three arrays — a
    [Bytes] of four-byte stamps, the keys, the values. A stamp is 0 for
    an empty slot, else the key's 30-bit [Hashtbl.hash] with bit 30
    set, so a probe compares key strings only on a full hash match, and
    growth reinserts every binding from its stamp without reading or
    hashing a key. The table starts at 64 slots and doubles when an
    insertion would take it past 7/8 full. Keys are never removed, so
    probe chains need no tombstones and a key's slot changes only when
    the table grows, which changes {!capacity}. *)

type t

val create : ?init:(string -> string option) -> unit -> t
(** [init key] supplies the initial value of a never-written key; [None]
    means absent. *)

val get : t -> string -> string option
val put : t -> string -> string -> unit

val get_hashed : t -> string -> hash:int -> string option
val put_hashed : t -> string -> hash:int -> string -> unit
(** [get] and [put] for a caller that already holds the key's hash:
    [hash] must be [Hashtbl.hash key]. Aria's batch cells carry it, so
    an operation hashes its key once. *)

val last_slot : t -> int
(** The slot where the latest [get_hashed] or [put_hashed] found or
    bound its key; -1 after a [get_hashed] that left the key absent.
    ([get] and [put] go through them.) *)

val capacity : t -> int
(** The number of slots. It only ever doubles, so a slot read from
    {!last_slot} still holds its key while [capacity] is unchanged. *)

val set_slot : t -> int -> string -> unit
(** [set_slot t i v] binds [v] to the key in slot [i], as [put] of that
    key would. [i] must come from {!last_slot} (not -1) at the current
    {!capacity}. Aria's batch cells keep the slot their read found, so
    a read-modify-write probes the table once. *)

val size : t -> int
(** Number of materialized keys (written or faulted-in). *)

val fingerprint : t -> string
(** An order-insensitive digest of the materialized contents — equal
    fingerprints mean equal states. The golden fixtures pin a run's
    executed database by it. *)
