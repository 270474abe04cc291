(* Replication stage: batch dissemination strategies (Table II), the
   receiver-side rebuild, and the post-crash content fetch pump. *)

open Node_ctx

val leader_oneway : repl_strategy
(** The proposing leader ships f_j + 1 full copies per remote group
    during the global phase (GeoBFT optimization; also Steward / ISS /
    Baseline). *)

val bijective_full : repl_strategy
(** Every node ships full copies per the partitioned bijective
    cluster-sending plan of §IV-A (the BR configuration). *)

val encoded_bijective : repl_strategy
(** Every node erasure-codes the entry and ships chunks per the
    Algorithm 1 transfer plan (MassBFT / EBR). *)

val plan_between : t -> src:int -> dst:int -> Transfer_plan.t
(** The Algorithm 1 transfer plan from group [src] to group [dst] at
    their active sizes, memoized per deployment. *)

val send_oneway_copies : t -> leader -> entry -> skip:int list -> unit
(** Ship f_j + 1 full copies to each remote group not in [skip]
    (invoked by the one-way global-consensus strategies). *)

val want_fetch : t -> leader -> Types.entry_id -> unit
(** Queue a missing entry's content for repair by full-copy fetch. *)

val on_content : t -> leader -> Types.entry_id -> unit
(** Content arrived at a leader: release the fetch slot, refill the
    pump. Part of the engine's on-leader-content composition. *)

val classify : node -> Types.entry_id -> plan:Transfer_plan.t -> digest:string ->
  Rebuild.symbolic_chunk -> unit Rebuild.verdict
(** One chunk through the node's classifier for the entry: created on the
    first chunk (in [n_rebuilding]), dropped for the entry's done bit in
    [n_rebuilt] once it rebuilds. *)

val on_chunk_received :
  t -> node -> eid:Types.entry_id -> root_tag:string -> index:int -> unit

val handle_chunk :
  t -> node -> eid:Types.entry_id -> root_tag:string -> index:int -> unit

val handle_copy : t -> node -> Types.entry_id -> unit
val handle_fetch_req : t -> node -> src:Topology.addr -> Types.entry_id -> unit

val observe : Node_ctx.t -> Massbft_obs.Sampler.t -> unit
(** Register the dissemination gauges: per-leader fetch-lane depth and
    per-node chunks-outstanding rebuild count. Part of
    [Engine.set_obs]. *)
