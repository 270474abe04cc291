(* Shared per-deployment context for the engine's stage modules: wire
   messages, the entry registry, node/leader state, the three Table II
   axes derived once from [Config.system], and the typed send/broadcast
   that replaces the old mutable dispatcher ref. See node_ctx.ml for the
   design notes. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Cpu = Massbft_sim.Cpu
module Pbft = Massbft_consensus.Pbft
module Raft = Massbft_consensus.Raft
module W = Massbft_workload.Workload
module Txn = Massbft_workload.Txn
module Kvstore = Massbft_exec.Kvstore
module Aria = Massbft_exec.Aria
module Ledger = Massbft_exec.Ledger
module Trace = Massbft_trace.Trace
module Intmath = Massbft_util.Intmath
module Entry_tbl = Types.Entry_tbl
module Bitset = Massbft_util.Bitset
module Inttbl = Massbft_util.Inttbl

type rpayload =
  | Entry_meta of { eid : Types.entry_id }
  | Ts of { eid : Types.entry_id; ts : int }
  | Noop

type msg =
  | Local of Pbft.msg
  | Chunk of { eid : Types.entry_id; root_tag : string; index : int }
  | Chunk_fwd of { eid : Types.entry_id; root_tag : string; index : int }
  | Copy of { eid : Types.entry_id }
  | Copy_fwd of { eid : Types.entry_id }
  | Raft_m of { inst : int; rmsg : rpayload Raft.msg }
  | Accept_req of { inst : int; index : int }
      (** skip-prepare accept round on Raft instance [inst]'s log
          [index]; the pair, folded into one int by {!round_key}, keys
          the leader's open round *)
  | Accept_vote of { inst : int; index : int }
  | Accept_note of { eid : Types.entry_id }
  | Recv_note of { eid : Types.entry_id }
  | Fetch_req of { eid : Types.entry_id }

(** One delivery an adversary hook substitutes for an intercepted send:
    the (possibly rewritten) message, emitted after [adv_delay_s] extra
    seconds at the sender (0 = immediately). *)
type adv_delivery = { adv_msg : msg; adv_delay_s : float }

(** The adversary interposer seam (massbft_adversary): sees every typed
    message at the send site and may rewrite it per destination. [None]
    leaves the send on the exact fault-free path; [Some []] withholds
    the message; multiple deliveries replay it. *)
type adv_hook =
  src:Topology.addr ->
  dst:Topology.addr ->
  bulk:bool ->
  bytes:int ->
  msg ->
  adv_delivery list option

type entry = {
  eid : Types.entry_id;
  digest : string;
  size : int;
  conf : string option;
      (** a reconfiguration command riding the pipeline as a zero-txn
          epoch-boundary entry (see massbft_reconfig) *)
  mutable txns : Txn.t list;
  mutable fb_txns : Txn.t list;
  txn_count : int;
  created_at : float;
  mutable decided_at : float;
  mutable committed_at : float;
  mutable ordered_at : float;
  mutable outcome : Aria.outcome option;
  mutable exec_count : int;
}

(** Per-entry yes/no state costs one bit per entry: one
    {!Massbft_util.Bitset} per proposing group, indexed by the entry's
    sequence number. *)
type node = {
  n_addr : Topology.addr;
  mutable n_pbft : Pbft.t option;
  n_content : Bitset.t array;
      (** [.(gid)]: the seqs of group [gid]'s entries whose full content
          this node holds *)
  n_rebuilt : Bitset.t array;
      (** [.(gid)]: done marks, the seqs whose chunk rebuild finished;
          later chunks for them are no-ops *)
  n_rebuilding : Rebuild.Symbolic.t Entry_tbl.t;
      (** the classifiers of rebuilds in progress, dropped (buckets and
          blacklist with them) when the rebuild completes *)
}

val make_node : ng:int -> Topology.addr -> node
(** A node with no PBFT replica and no content, for a deployment of
    [ng] provisioned groups. *)

(** A leader's VTS marks for one (instance, proposing group) pair, by
    sequence number. *)
type ts_marks = {
  ts_seen : Bitset.t;  (** we proposed a Ts record, or one committed *)
  ts_committed : Bitset.t;  (** a Ts record committed (first wins) *)
}

val make_ts_marks : n_inst:int -> ng:int -> ts_marks array array

(** A leader's open skip-prepare accept round: the distinct voter node
    ids so far and the continuation the quorum releases. *)
type accept_round = { a_votes : Bitset.t; a_release : unit -> unit }

type leader = {
  l_gid : int;
  mutable l_addr : Topology.addr;
      (** the node currently acting as group leader; migrated by the
          engine after a PBFT view change deposes a crashed leader *)
  mutable l_rafts : rpayload Raft.t array;
  mutable l_orderer : Orderer.t option;
  l_ledger : Ledger.t;
  mutable l_clk : int;
  l_clk_of : int array;
  mutable l_retry : Txn.t list;
  l_gen : W.t;
  mutable l_in_flight : int;
  mutable l_next_seq : int;
  mutable l_batch_pending : bool;
  l_exec_q : Types.entry_id Queue.t;
  mutable l_exec_busy : bool;
  mutable l_head_timer : Types.entry_id option;
      (** the execution-queue head whose content timeout is pending: the
          pump arms at most one per head *)
  l_accept : accept_round Inttbl.t;  (** keyed by {!round_key} *)
  l_accept_notes : Bitset.t Entry_tbl.t;  (** noting groups per entry *)
  l_ts : ts_marks array array;  (** [.(instance).(proposing gid)] *)
  l_last_heard : float array;
  l_waiting_content : (unit -> unit) list ref Entry_tbl.t;
  l_committed_unexec : unit Entry_tbl.t;
  l_round_ready : unit Entry_tbl.t;
  mutable l_next_round : int;
  mutable l_sweeping : bool;
  l_recv_notes : int ref Entry_tbl.t;
  l_steward_proposed : unit Entry_tbl.t;
  l_fetching : int ref Entry_tbl.t;
  l_fetch_q : Types.entry_id Queue.t;
  mutable l_fetch_out : int;
  l_pending_conf : string Queue.t;
  mutable l_skip_commits_below : int array;
  l_stuck : int ref Inttbl.t;  (** keyed by {!round_key} *)
  mutable l_vc_target : int;
  mutable l_stall_seq : int;
  mutable l_stall_ticks : int;
}

(** One group pair's dissemination plans, generated on first use for
    the active sizes [p_n1] -> [p_n2]. Plans are pure functions of the
    sizes. *)
type plans = {
  p_n1 : int;
  p_n2 : int;
  p_transfer : Transfer_plan.t Lazy.t;  (** Algorithm 1 (chunks) *)
  p_bijective : Bijective_plan.t Lazy.t;  (** §IV-A (full copies) *)
}

val plans_for : n1:int -> n2:int -> plans

type t = {
  sim : Sim.t;
  topo : Topology.t;
  cfg : Config.t;
  ng : int;
  nodes : node array array;
  leaders : leader array;
  entries : entry Entry_tbl.t;
  plans : plans array array;
      (** [src_group][dst_group]; replaced when either active size
          changes (see [Replication.plan_between]) *)
  metrics : Metrics.t;
  shared_store : Kvstore.t;
      (** the deployment's one database: each entry executes into it
          once, at the first leader to reach the entry *)
  repl : Config.replication;
  glob : Config.global_consensus;
  ord : Config.ordering;
      (** the Table II axes of [cfg.system], fixed at [Engine.create];
          each stage matches on its own axis *)
  deliver : t -> src:Topology.addr -> dst:Topology.addr -> msg -> unit;
  on_leader_content : t -> leader -> Types.entry_id -> unit;
  mutable started : bool;
  mutable node_watch : bool;
  mutable adv_hook : adv_hook option;
  mutable trace : Trace.t;
  active_n : int array;
      (** active node slots per group — quorum math runs over these, not
          the physical sizes (identical without a reconfiguration) *)
  g_member : bool array;
      (** instantaneous group membership; a non-member neither batches,
          receives replication traffic nor executes *)
  member_from : int array;
  member_until : int array;
      (** round-indexed membership window for round-barrier ordering *)
  mutable reconfig_order : (t -> leader -> entry -> unit) option;
      (** the reconfig controller's placement hook, fired when a leader's
          ordering stage places an epoch-boundary entry into its
          execution order *)
  mutable reconfig_apply : (t -> leader -> entry -> unit) option;
      (** the reconfig controller's apply hook, fired at execution of an
          epoch-boundary entry *)
  mutable fetch_retries : int;
}

val now : t -> float

val round_key : t -> inst:int -> index:int -> int
(** One int per (global-consensus instance, log index) pair, keying the
    leaders' accept rounds and unwedge tick counts ([index * ng + inst];
    an instance id is below [ng]). *)

val sim_of : t -> int -> Sim.t
(** The shard handle group [gid]'s events are accounted to (see
    [Topology.shard_of]); arm-time scheduling for a group's timer
    chains goes through it. *)

val entries_snapshot : t -> entry list

val node_of : t -> Topology.addr -> node
val leader_addr : t -> int -> Topology.addr
(** The address currently acting as the group's leader (node 0 until a
    view-change migration moves it). *)

val is_acting_leader : t -> Topology.addr -> bool
val alive : t -> Topology.addr -> bool
val entry_of : t -> Types.entry_id -> entry
val active_size : t -> int -> int
val group_f : t -> int -> int
val fg : t -> int

val member_now : t -> int -> bool
(** Is the group a member of the current configuration (instantaneous —
    gates batching and replication sends)? *)

val member_in_round : t -> int -> int -> bool
(** [member_in_round t gid round]: does the round-barrier ordering
    expect a contribution from [gid] at [round]? *)

val copy_bytes : t -> Types.entry_id -> int
(** Wire size of a full entry copy: batch bytes + the sender group's
    PBFT certificate. *)

val send :
  t ->
  bulk:bool ->
  src:Topology.addr ->
  dst:Topology.addr ->
  bytes:int ->
  msg ->
  unit
(** Typed send: charges the topology's NICs/links, then hands the
    message to the engine's dispatcher ([t.deliver]). [bulk] selects
    the NIC service class (entry payloads are bulk, control traffic is
    not); see {!Topology.send}. *)

val broadcast_group :
  t -> bulk:bool -> src:Topology.addr -> bytes:int -> msg -> unit

val charge_cpu : t -> Topology.addr -> float -> (unit -> unit) -> unit

val charge_cpu_parallel : t -> Topology.addr -> float -> (unit -> unit) -> unit
(** Spread an embarrassingly parallel cost over every core of the
    node, continuing when the last slice finishes. *)

val measuring : t -> float -> bool
(** Did this entry originate inside the measurement window? *)

val trace_entry :
  t ->
  ?gid:int ->
  ?node:int ->
  ?args:(string * Trace.value) list ->
  Types.entry_id ->
  string ->
  unit

val has_content : node -> Types.entry_id -> bool

val content_event : t -> node -> Types.entry_id -> unit
(** The node came to hold the entry's full content. Leader-side
    reactions run through [t.on_leader_content]. *)

val run_content_waiters : leader -> Types.entry_id -> unit
(** Release the callbacks parked on the entry's content (content-gated
    Raft acks, Lemma V.1). *)

val when_content : t -> leader -> Types.entry_id -> (unit -> unit) -> unit

(** {1 Observability} *)

val obs_group_labels : leader -> Massbft_obs.Registry.labels
val obs_node_labels : node -> Massbft_obs.Registry.labels
(** The shared label conventions ([group], [node]) so every stage's
    instruments join on the same keys. *)

val observe : t -> Massbft_obs.Sampler.t -> unit
(** Register the deployment-wide instruments (transaction totals as
    polled counters, the entry-registry size) in the sampler's
    registry. Part of [Engine.set_obs]. *)
