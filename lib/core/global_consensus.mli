(* Global-consensus stage: the Raft adapter with content-gated acks
   (Lemma V.1), the skip-prepare accept rounds they gate on, heartbeats
   and log unwedging, matched on the leader's global-consensus state. *)

open Node_ctx

val start : t -> leader -> entry -> unit
(** The proposer's leader starts the global phase of its decided entry:
    propose it in the group's own instance, forward it to Steward's
    global leader, or (GeoBFT) ship it, count it committed and hold its
    pipeline slot until every group the copy went to has noted it. *)

val on_content : t -> leader -> Types.entry_id -> unit
(** Content arrived at a leader; under [Direct_broadcast] this is the
    commitment event, credited back to the proposer with a Recv_note.
    Part of the engine's on-leader-content composition. *)

val on_copy : t -> node -> Types.entry_id -> unit
(** A full copy brought the node new content: Steward's group-0 leader
    proposes a remote entry in the single global log. *)

val on_leader_migrated : t -> leader -> Topology.addr -> unit
(** The group's acting-leader role moved to the address. Under
    [Direct_broadcast], reset the proposer window (notes sent to the
    dead leader are lost) and run the receive reaction for remote
    content the new leader took in as a follower. *)

val handle_raft_m :
  t -> src:Topology.addr -> dst:Topology.addr -> inst:int ->
  rpayload Raft.msg -> unit

val handle_recv_note :
  t -> src:Topology.addr -> dst:Topology.addr -> Types.entry_id -> unit
(** GeoBFT: the source's group holds the proposer's entry. The note
    clears that group's bit; the last bit releases the pipeline slot,
    and a late or duplicated note does nothing. *)

val forget_group : t -> int -> unit
(** GeoBFT: the group left the membership, so no entry awaits its note
    any longer; entries left awaiting nobody release their slots. *)

val handle_accept_req :
  t -> src:Topology.addr -> dst:Topology.addr -> inst:int -> index:int -> unit

val handle_accept_vote :
  t -> src:Topology.addr -> dst:Topology.addr -> inst:int -> index:int -> unit

val handle_accept_note :
  t -> src:Topology.addr -> dst:Topology.addr -> Types.entry_id -> unit
(** A remote group accepted the entry (VTS ordering's slow-receiver
    lane, §V-C): at notes from f_g distinct groups, stamp it without
    holding it. *)

val install : t Lazy.t -> ng:int -> gid:int -> n_inst:int -> raft_state
(** Group [gid]'s leader endpoints of [n_inst] Raft instances, built
    inside [Engine.create] (the lazy context ties the callbacks'
    knot). *)

val start_heartbeats : t -> unit
(** Arm the heartbeat / election / unwedge timers. Called once from
    [Engine.start]; a no-op without global Raft instances. *)

val observe : Node_ctx.t -> Massbft_obs.Sampler.t -> unit
(** Register the per-instance Raft role and commit-index gauges. Part
    of [Engine.set_obs]. *)
