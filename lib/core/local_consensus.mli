(* Local-consensus stage: the per-group PBFT adapter. Decided batches
   go straight to Replication and Global_consensus; the skip-prepare
   accept rounds live in Global_consensus. *)

open Node_ctx

val handle : t -> node -> src:Topology.addr -> Pbft.msg -> unit
(** Deliver a PBFT message to the node's replica, charging the batch
    signature-verification cost on Pre_prepare receipt. *)

val install : t -> unit
(** Create the per-node PBFT replicas. Called once from
    [Engine.create]. *)

val observe : Node_ctx.t -> Massbft_obs.Sampler.t -> unit
(** Register the per-replica PBFT role and view gauges. Part of
    [Engine.set_obs]. *)
