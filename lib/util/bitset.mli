(** Mutable sets of non-negative ints, one bit per element.

    The vote tallies (PBFT prepares and commits, Raft acks and election
    votes, accept-round votes) and the rebuild classifier's bucket ids
    hold small voter or chunk ids and are updated once per message; a
    bitset makes [add], [mem] and [cardinal] O(1) with no allocation
    once the set has grown to its largest element. The first machine
    word of bits lives in the record itself; elements beyond it spill
    into an array that doubles as needed, so there is no size cap. *)

type t

val create : unit -> t
(** The empty set. *)

val mem : t -> int -> bool
(** [false] for every negative int. *)

val add : t -> int -> unit
(** Adds an element (a no-op when present). Raises [Invalid_argument]
    on a negative int. *)

val remove : t -> int -> unit
(** Removes an element (a no-op when absent, negative ints included). *)

val cardinal : t -> int
(** O(1): the count is kept as elements are added and removed. *)

val clear : t -> unit
(** Empties the set and releases its spilled words. *)

val elements : t -> int list
(** The elements in ascending order, as [Set.Make (Int).elements]. *)
