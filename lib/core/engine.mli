(** The protocol engine: a full deployment of MassBFT (or one of the
    competitor systems — same engine, different {!Config.system}) over a
    simulated geo-distributed cluster.

    Per group, the engine runs: saturated clients and 20 ms batching
    with a bounded pipeline; local PBFT consensus at node granularity
    (the real {!Massbft_consensus.Pbft} state machines exchanging
    messages through the simulated LAN, with per-transaction signature
    verification charged on each node's CPU); the configured global
    replication strategy (leader one-way copies, full bijective copies,
    or encoded bijective chunks following {!Transfer_plan}, with
    Merkle-root bucket classification of chunks); the configured global
    consensus ({!Massbft_consensus.Raft} instances between group
    leaders, with accept-phase local consensus and content-gated acks
    per Lemma V.1); the configured ordering (synchronous rounds, ISS
    epochs, Steward's global log, or Algorithm 2's asynchronous VTS
    ordering through {!Orderer}); and Aria execution over the real
    workloads, with conflicted transactions re-queued by their proposer.

    Faults: Byzantine chunk tampering (colluding nodes per §VI-E) and
    whole-group crashes with Raft leader takeover and frozen-clock
    timestamp assignment (§V-C).

    Fidelity notes (see DESIGN.md): entry payloads inside the simulator
    are virtual (sizes + digests; the byte-level chunker/rebuild pipeline
    is exercised by the test suite and shares its size arithmetic with
    the engine); ordering and execution state is maintained at each
    group's leader node, with execution and verification CPU charged on
    every node. *)

type t

val create : Massbft_sim.Sim.t -> Massbft_sim.Topology.t -> Config.t -> t
(** Wires a deployment over [topology]; nothing runs until {!start}. *)

val set_trace : t -> Massbft_trace.Trace.t -> unit
(** Attaches a trace sink to the whole deployment — the simulator core,
    every NIC and CPU in the topology, every local PBFT replica, every
    global Raft instance, and the engine's own entry-lifecycle
    instrumentation (batch → local decide → encode/transfer → rebuild →
    commit → order → execute, emitted as ["entry"]/["entry.phase"]
    events correlated by entry id). Also installs the simulator clock
    into the sink so event timestamps carry virtual time. Call before
    {!start}; tracing defaults to the disabled sink ({!
    Massbft_trace.Trace.null}), in which case every emission site is a
    single branch. *)

val set_obs : t -> Massbft_obs.Sampler.t -> unit
(** Registers every stage's instruments with the sampler: admission
    (pipeline in-flight, retry queue), PBFT role/view per replica,
    replication (fetch lane, rebuilds in progress), Raft role and
    commit index per instance, the ordering round barrier, the
    execution pump, and the deployment-wide transaction totals. All
    probes are read-only polls of existing state, so an observed run is
    result-identical to an unobserved one. Call after {!create} and
    before [Sampler.attach]; independent of {!set_trace} — either
    subsystem works without the other. *)

val start : t -> unit
(** Arms the batch timers, heartbeats and fault injectors. Run the
    simulation with {!Massbft_sim.Sim.run}. *)

val set_adversary : t -> Node_ctx.adv_hook option -> unit
(** Installs (or removes, with [None]) the Byzantine-adversary message
    interposer on the engine's typed send path. The hook sees every
    protocol message at its send site and may rewrite, fork, withhold,
    replay or delay it per destination (massbft_adversary compiles
    strategy plans into such hooks). With no hook installed the send
    path is exactly the fault-free one. *)

val arm_watchdogs : t -> unit
(** Arms the per-group liveness watchdogs the engine normally arms
    lazily on the first node-level crash. An active Byzantine strategy
    can stall PBFT slots without crashing anyone, so adversary drills
    arm them explicitly; idempotent, and fault-free runs that never call
    it schedule nothing. *)

val metrics : t -> Metrics.t

val set_measure_from : t -> float -> unit
(** Samples with creation time before this instant are discarded
    (warm-up exclusion). *)

val executed_ids : t -> gid:int -> Types.entry_id list
(** The execution order observed at group [gid]'s leader, oldest first
    — the object of the agreement tests. *)

val store_fingerprint : t -> string
(** Fingerprint of the deployment's one database: every entry executes
    once, at the first leader to reach it, into the shared memoized
    store. What the groups agree on is the order — compare their
    ledgers ({!ledger_of}). *)

val ledger_of : t -> gid:int -> Massbft_exec.Ledger.t
(** The globally ordered ledger as built by group [gid]'s leader. *)

val entries_executed_total : t -> int
val wan_bytes : t -> int
val lan_bytes : t -> int

val debug_dump : t -> string
(** Human-readable snapshot of per-leader protocol state (pipelines,
    Raft roles per instance, orderer heads) for diagnostics. *)

val recover_group : t -> int -> unit
(** Restore a crashed group's nodes (its Raft instances re-join on
    traffic; used by recovery experiments). *)

val crash_group : t -> int -> unit
(** Crash every node of the group now (what a [crash-group] fault
    applies). *)

val crash_node : t -> Massbft_sim.Topology.addr -> unit
(** Crash a single node. Crashing a group's acting leader arms the
    engine's per-group liveness watchdogs (lazily, so fault-free runs
    schedule nothing): survivors drive a PBFT view change past dead
    view leaders, and the acting-leader role migrates to the new view's
    leader, re-proposing any entries stranded by the crash. *)

val recover_node : t -> Massbft_sim.Topology.addr -> unit
(** Restore a single node. The replica adopts the group's current PBFT
    view (post-recovery state transfer) so it can vote again. *)

(** {1 Invariant-checker accessors}

    Read-only views for {e external} safety checkers (massbft_faults):
    polling them never changes a run. *)

val n_groups : t -> int
val group_size : t -> int -> int
val config : t -> Config.t

val acting_leader : t -> gid:int -> Massbft_sim.Topology.addr
(** The node currently holding the group's acting-leader role. *)

val raft_instances : t -> int
(** Global Raft instances per leader (0 for GeoBFT). *)

val raft_commit_index : t -> gid:int -> inst:int -> int
(** Commit index of instance [inst] as seen by group [gid]'s leader. *)

val replica_decided : t -> g:int -> n:int -> seq:int -> string option
(** The digest node [(g,n)]'s PBFT replica decided at local sequence
    [seq], if any. *)

val entry_digest : t -> Types.entry_id -> string option

val proposed_seqs : t -> gid:int -> int
(** Highest local sequence number the group has formed a batch for. *)

(** {1 Reconfiguration seam (massbft_reconfig)} *)

val ctx : t -> Node_ctx.t
(** The full shared context. The reconfiguration controller spans every
    stage (topology provisioning, state transfer, epoch-boundary
    membership flips), so it operates on the context directly instead
    of through per-field accessors. *)

val submit_conf : t -> int -> unit
(** Enqueue a reconfiguration-plan event (its index in the plan) at the
    coordinator group. It is formed into a zero-txn epoch-boundary
    entry and ordered through global consensus like any batch; the
    controller's apply hook fires when leaders execute it. *)
