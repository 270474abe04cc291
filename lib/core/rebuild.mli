(** Optimistic entry rebuild with DoS protection — the receiver half of
    encoded bijective replication (§IV-C).

    Incoming chunks are first checked, then grouped by Merkle root into
    buckets. When a bucket reaches [n_data] chunks the entry is
    tentatively rebuilt and validated against its PBFT certificate. A
    bucket that fails validation is entirely fake — all chunks under one
    root come from one encoding — so its chunk {e ids} are blacklisted:
    those ids were handled by faulty nodes, their correct versions will
    never appear, and accepting more candidates for them would re-open
    the denial-of-service vector the paper closes.

    This is the only implementation of that rule: one classifier over a
    payload model, run on real bytes ({!create}) and on the engine's
    virtual payloads ({!Symbolic}). *)

type 'e verdict =
  | Accepted  (** queued into a bucket, no rebuild attempted yet *)
  | Rebuilt of 'e  (** the entry, certificate-validated *)
  | Rejected_proof  (** index out of range, or the Merkle proof fails *)
  | Rejected_blacklisted  (** chunk id burned by a failed rebuild *)
  | Rejected_duplicate  (** this (root, id) was already accepted *)
  | Rejected_fake_bucket of int list
      (** bucket rebuilt but failed certificate validation; the listed
          chunk ids (ascending) are now blacklisted *)
  | Already_done  (** the entry was rebuilt earlier *)

(** {1 Virtual payloads} *)

type symbolic_chunk = { root_tag : string; index : int }

(** The engine's classifier for one entry. Root tags stand in for
    Merkle roots, every index is in range, and a full bucket rebuilds
    exactly when its root tag is the certificate's digest. *)
module Symbolic : sig
  type t

  val create : unit -> t

  val add : t -> plan:Transfer_plan.t -> string -> symbolic_chunk -> unit verdict
  (** [add t ~plan digest chunk]; never [Already_done], as the caller
      replaces [t] with its own done mark on [Rebuilt]. *)

  val blacklisted : t -> int list
  val bucket_size : t -> string -> int  (** chunks held under a root tag *)
end

(** {1 Real bytes}

    Keys are Merkle roots; a chunk is well formed when its index is in
    range and {!Chunker.verify_chunk} accepts it; a full bucket is
    [Erasure.decode]d and the candidate passed to [validate]. *)

type t

val create : plan:Transfer_plan.t -> validate:(string -> bool) -> unit -> t
(** [validate candidate] checks a rebuilt candidate entry against its
    certificate (digest comparison in practice). *)

val add : t -> Chunker.chunk -> string verdict

val result : t -> string option
(** The validated entry, once rebuilt. *)

val blacklisted : t -> int list
(** Currently burned chunk ids (ascending). *)
