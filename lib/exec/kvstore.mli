(** The in-memory database state: a hash table with lazy default
    materialization. The paper stores states in in-memory hash tables;
    here cold rows (e.g. SmallBank's million initial balances) are
    produced on first touch by an initializer instead of being
    physically preloaded, which preserves execution semantics while
    keeping simulations light (see DESIGN.md substitutions).

    Layout: open addressing with linear probing over three arrays — a
    [Bytes] of one-byte tags, the keys, the values. A tag is 0 for an
    empty slot, else seven bits of the key's [Hashtbl.hash] taken above
    the bits that pick its home slot, so a probe compares key strings
    only where the tag matches. The table starts at 64 slots and
    doubles (rehashing every key) when an insertion would take it past
    7/8 full. Keys are never removed, so probe chains need no
    tombstones. *)

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

val size : t -> int
(** Number of materialized keys (written or faulted-in). *)

val fingerprint : t -> string
(** An order-insensitive digest of the materialized contents — equal
    fingerprints mean equal states. The golden fixtures pin a run's
    executed database by it. *)
