(** Merkle trees and inclusion proofs over chunk sets (paper §IV-C).

    After encoding an entry into chunks, each sender builds a Merkle
    tree over the chunks and ships each chunk with its proof. Receivers
    bucket incoming chunks by Merkle root: chunks under the same root
    are guaranteed to come from the same encoding, so a single failed
    rebuild condemns the whole bucket.

    Leaves are domain-separated from internal nodes (0x00 / 0x01
    prefixes) to rule out second-preimage tree-splicing attacks. An odd
    node at any level is paired with itself. *)

type tree

type proof = { leaf_index : int; path : string list }
(** Sibling hashes from the leaf up to (excluding) the root. *)

val build : string list -> tree
(** [build leaves] hashes each leaf and builds the tree. Raises
    [Invalid_argument] on an empty list. *)

val root : tree -> string
(** The 32-byte root hash. *)

val leaf_count : tree -> int

val prove : tree -> int -> proof
(** [prove t i] is the inclusion proof for the [i]-th leaf. *)

val verify : root:string -> leaf:string -> proof -> bool
(** [verify ~root ~leaf p] checks that [leaf] sits at [p.leaf_index]
    under [root]. *)

val proof_size : proof -> int
(** Serialized size in bytes (for WAN traffic accounting): 32 bytes per
    path element plus a 4-byte index. *)

val leaf_hash : string -> string
(** The domain-separated hash of a raw leaf (exposed for tests). *)
