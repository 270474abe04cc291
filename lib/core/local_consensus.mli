(* Local-consensus stage: the per-group PBFT adapter. *)

open Node_ctx

val handle : t -> node -> src:Topology.addr -> Pbft.msg -> unit
(** Deliver a PBFT message to the node's replica, charging the batch
    signature-verification cost on Pre_prepare receipt. *)

val install : t -> unit
(** Create the per-node PBFT replicas. Called once from
    [Engine.create]. *)

val accept_round :
  t -> leader -> inst:int -> index:int -> (unit -> unit) -> unit
(** Reach local consensus on the accept decision for Raft instance
    [inst]'s log [index] via the skip-prepare variant (§V-B): broadcast
    the request, run the continuation at a quorum of votes. A new round
    on the same pair replaces an open one. *)

val handle_accept_req :
  t -> src:Topology.addr -> dst:Topology.addr -> inst:int -> index:int -> unit

val handle_accept_vote :
  t -> src:Topology.addr -> dst:Topology.addr -> inst:int -> index:int -> unit
val handle_accept_note : t -> dst:Topology.addr -> Types.entry_id -> unit

val observe : Node_ctx.t -> Massbft_obs.Sampler.t -> unit
(** Register the per-replica PBFT role and view gauges. Part of
    [Engine.set_obs]. *)
