(* Replication stage: batch dissemination on the replication axis
   (Table II), the receiver-side rebuild, and the post-crash content
   fetch pump. *)

open Node_ctx

val on_decide : t -> node -> entry -> unit
(** Per-node dissemination when local consensus decides a batch:
    nothing for [Leader_oneway] (the leader ships during the global
    phase), full copies per the bijective plan of §IV-A for
    [Bijective_full], Algorithm 1 chunks for [Encoded_bijective]. *)

val coding_s : t -> entry -> float
(** Coding CPU charged per entry: encode plus rebuild under
    [Encoded_bijective], zero otherwise. *)

val send_oneway_copies : t -> leader -> entry -> skip:int list -> unit
(** Ship f_j + 1 full copies to each remote group not in [skip] (the
    global phase of GeoBFT and Steward, which are one-way systems). *)

val on_global_start : t -> leader -> entry -> unit
(** The proposer's leader starts the global phase under per-group Raft:
    [Leader_oneway] ships its f_j + 1 copies per remote group now; the
    bijective values shipped at decide time. *)

val want_fetch : t -> leader -> Types.entry_id -> unit
(** Queue a missing entry's content for repair by full-copy fetch. *)

val fetch_after_timeout :
  ?on_fire:(unit -> unit) -> t -> leader -> Types.entry_id -> unit
(** The content-repair guard of the ack guards and the execution pump:
    if the leader lacks the entry, arm one timer that, after
    [Config.fetch_timeout_s], runs [on_fire] and then {!want_fetch}es
    the entry if the leader is alive and still lacks it. *)

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

val handle_copy : t -> node -> Types.entry_id -> bool
(** A full copy landed: take the content and forward it over the LAN.
    [true] when the node lacked it, so the engine can let the global
    stage react (Steward's G0 forwarding). *)

val handle_fetch_req : t -> node -> src:Topology.addr -> Types.entry_id -> unit

val observe : Node_ctx.t -> Massbft_obs.Sampler.t -> unit
(** Register the dissemination gauges: per-leader fetch-lane depth and
    per-node chunks-outstanding rebuild count. Part of
    [Engine.set_obs]. *)
