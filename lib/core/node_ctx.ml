(** Shared per-deployment context for the engine's stage modules.

    The engine is a thin conductor over explicit stages (Batcher,
    Local_consensus, Replication, Global_consensus, Ordering, Execution);
    this module owns everything they share: the wire-message vocabulary,
    the entry registry, per-node and per-leader state, CPU/NIC charging,
    the trace sink, and typed send/broadcast.

    Messages are delivered through the [deliver] field — the engine's
    dispatcher, installed once at construction. Cross-stage reactions to
    content arrival go through [on_leader_content], a composition the
    engine also fixes at construction, so no stage needs a forward
    reference to another.

    The three Table II axes of [Config.system] are derived once, at
    [Engine.create]: replication into the immutable [repl] field, and
    global consensus and ordering into each leader's [l_glob] and
    [l_ord] state, whose constructors mirror the axis values and carry
    only their own fields. Each stage matches on its own axis, so adding
    an axis value is a constructor plus the sites the compiler's
    exhaustiveness check reports.

    Every type and value here is shared by the stages, so the module has
    no separate interface: each type is declared once. *)

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

(* ------------------------------------------------------------------ *)
(* Wire messages                                                       *)
(* ------------------------------------------------------------------ *)

(** Payloads of the global Raft instances: entry metadata (digest +
    certificate; the content travels by the replication strategy) and
    vector-timestamp records. *)
type rpayload =
  | Entry_meta of { eid : Types.entry_id }
  | Ts of { eid : Types.entry_id; ts : int }
  | Noop
      (** replaces an unrecoverable dead-group entry in a taken-over log *)

type msg =
  | Local of Pbft.msg  (** intra-group batch consensus *)
  | Chunk of { eid : Types.entry_id; root_tag : string; index : int }
  | Chunk_fwd of { eid : Types.entry_id; root_tag : string; index : int }
  | Copy of { eid : Types.entry_id }  (** full entry copy *)
  | Copy_fwd of { eid : Types.entry_id }
  | Raft_m of { inst : int; rmsg : rpayload Raft.msg }
  | Accept_req of { inst : int; index : int }
      (** skip-prepare accept round on Raft instance [inst]'s log
          [index]; the pair, folded into one int by {!round_key}, keys
          the leader's open round *)
  | Accept_vote of { inst : int; index : int }
  | Accept_note of { eid : Types.entry_id }
  | Recv_note of { eid : Types.entry_id }  (** GeoBFT delivery credit *)
  | Fetch_req of { eid : Types.entry_id }

(* ------------------------------------------------------------------ *)
(* The adversary interposer seam                                       *)
(* ------------------------------------------------------------------ *)

(* Unlike the topology's fault hook — which sees only sizes and can
   merely drop, delay or duplicate — this hook (massbft_adversary) sees
   the typed message and may rewrite it per destination: forged digests,
   per-peer forks (equivocation), withheld or replayed protocol
   messages. [None] leaves the send on the exact fault-free path; the
   field itself is [None] outside adversary drills, so unconfigured runs
   are bit-identical to builds without the seam. *)

(** One delivery an adversary hook substitutes for an intercepted send:
    the (possibly rewritten) message, emitted after [adv_delay_s] extra
    seconds at the sender (0 = immediately). *)
type adv_delivery = { adv_msg : msg; adv_delay_s : float }

(** The adversary interposer: [None] leaves the send on the exact
    fault-free path; [Some []] withholds the message; multiple
    deliveries replay it. *)
type adv_hook =
  src:Topology.addr ->
  dst:Topology.addr ->
  bulk:bool ->
  bytes:int ->
  msg ->
  adv_delivery list option

(* ------------------------------------------------------------------ *)
(* Entry registry and per-node state                                   *)
(* ------------------------------------------------------------------ *)

type entry = {
  eid : Types.entry_id;
  digest : string;
  size : int;  (** wire bytes of the batch *)
  conf : string option;
      (** a reconfiguration command riding the pipeline as a zero-txn
          epoch-boundary entry: totally ordered like any batch, so every
          leader applies the membership flip at the same global position *)
  mutable txns : Txn.t list;
  mutable fb_txns : Txn.t list;  (** Aria fallback lane: retried conflicts *)
  txn_count : int;
  created_at : float;
  mutable decided_at : float;
  mutable committed_at : float;
  mutable ordered_at : float;
  mutable outcome : Aria.outcome option;  (** memoized execution *)
  mutable exec_count : int;  (** leaders that executed it, for pruning *)
}

(** Per-entry yes/no state is one bit per entry: a
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

(** A node with no PBFT replica and no content, for a deployment of
    [ng] provisioned groups. *)
let make_node ~ng n_addr =
  {
    n_addr;
    n_pbft = None;
    n_content = Array.init ng (fun _ -> Bitset.create ());
    n_rebuilt = Array.init ng (fun _ -> Bitset.create ());
    n_rebuilding = Entry_tbl.create 16;
  }

(** A leader's Ts-lane marks for one (instance, proposing group) pair,
    by the entry's sequence number. *)
type ts_marks = {
  ts_seen : Bitset.t;  (** we proposed a Ts record, or one committed *)
  ts_committed : Bitset.t;  (** a Ts record committed (first wins) *)
}

(** A leader's open skip-prepare accept round: the distinct voter node
    ids so far (duplicate deliveries, an injectable fault, must not fake
    a quorum) and the continuation the quorum releases. *)
type accept_round = { a_votes : Bitset.t; a_release : unit -> unit }

(** {1 Leader state per Table II axis}

    Each constructor mirrors a {!Config.global_consensus} or
    {!Config.ordering} value and carries only its own fields. *)

(** A leader's endpoints of the global Raft instances and the
    bookkeeping every Raft family runs. The Ts lane stamps every
    committed entry in the instances this leader leads, whatever the
    ordering; only VTS ordering consumes the committed stamps. *)
type raft_state = {
  rafts : rpayload Raft.t array;  (** per instance *)
  last_heard : float array;  (** per instance *)
  skip_commits_below : int array;
      (** per instance: commit indices at or below this were received by
          reconfiguration state transfer, which the raft backfill
          replays but must not re-execute *)
  stuck : int ref Inttbl.t;
      (** ticks a led instance's head-of-line entry has been unackable,
          keyed by {!round_key} *)
  accept : accept_round Inttbl.t;  (** keyed by {!round_key} *)
  ts : ts_marks array array;  (** [.(instance).(proposing gid)] *)
  clk_of : int array;  (** last committed seq per instance *)
}

type glob_state =
  | Per_group_raft of raft_state
  | Single_raft of { raft : raft_state; proposed : unit Entry_tbl.t }
      (** Steward: [proposed] holds the entries group 0 has proposed in
          the one log *)
  | Direct_broadcast of { awaiting : Bitset.t Entry_tbl.t }
      (** GeoBFT: per in-flight own entry, the groups whose receive note
          is still due (those its copy went to); the binding goes when
          the set empties and the pipeline slot is released *)

(** The round barrier: marks of open rounds only; everything below
    [next_round] counts as ready. *)
type rounds = {
  round_ready : unit Entry_tbl.t;
  mutable next_round : int;
  mutable sweeping : bool;  (** a round-barrier sweep is running *)
}

(** MassBFT's asynchronous ordering (Algorithm 2). *)
type vts_state = {
  orderer : Orderer.t;
  mutable clk : int;  (** own committed-entry count: our stamps' value *)
  accept_notes : Bitset.t Entry_tbl.t;
      (** noting groups per entry, dropped when the entry is stamped *)
}

type ord_state =
  | Sync_rounds of rounds
  | Epoch_rounds of { k : int; rounds : rounds }
  | Async_vts of vts_state
  | Global_log

type leader = {
  l_gid : int;
  mutable l_addr : Topology.addr;
      (** the node currently acting as the group's leader. Fixed at node 0
          until a node-level crash of the acting leader drives a PBFT view
          change, after which the engine migrates the role (and this
          record — the group's replicated leader-side state) to the new
          view's live leader. *)
  l_glob : glob_state;  (** the global-consensus axis's state *)
  l_ord : ord_state;  (** the ordering axis's state *)
  l_ledger : Ledger.t;
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
  l_waiting_content : (unit -> unit) list ref Entry_tbl.t;
  l_committed_unexec : unit Entry_tbl.t;
  l_fetching : int ref Entry_tbl.t;  (** wanted content, with attempt count *)
  l_fetch_q : Types.entry_id Queue.t;
  mutable l_fetch_out : int;  (** outstanding fetch requests *)
  l_pending_conf : string Queue.t;
      (** reconfiguration commands awaiting an epoch-boundary entry; the
          batcher drains one per batch slot ahead of client txns *)
  mutable l_vc_target : int;
      (** highest local view-change target the engine's liveness watchdog
          has driven for this group (0 when never driven) *)
  mutable l_stall_seq : int;
      (** lowest proposed-but-undecided local sequence number at the last
          watchdog tick (0 when none); also the scan cursor — decisions
          below it are final *)
  mutable l_stall_ticks : int;
      (** consecutive watchdog ticks the same sequence number has been
          stuck; two ticks drive a view change to recover lost votes *)
}

let make_rounds () =
  { round_ready = Entry_tbl.create 64; next_round = 1; sweeping = false }

(* ------------------------------------------------------------------ *)
(* The context                                                         *)
(* ------------------------------------------------------------------ *)

(** One group pair's dissemination plans, built on first use for the
    active sizes [p_n1] -> [p_n2]. Plans are pure functions of the
    sizes. *)
type plans = {
  p_n1 : int;
  p_n2 : int;
  p_transfer : Transfer_plan.t Lazy.t;  (** Algorithm 1 (chunks) *)
  p_bijective : Bijective_plan.t Lazy.t;  (** §IV-A (full copies) *)
}

let plans_for ~n1 ~n2 =
  {
    p_n1 = n1;
    p_n2 = n2;
    p_transfer = lazy (Transfer_plan.generate ~n1 ~n2);
    p_bijective = lazy (Bijective_plan.generate ~n1 ~n2);
  }

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
      (** the replication axis, fixed at create; the other two Table II
          axes are each leader's [l_glob] and [l_ord] *)
  deliver : t -> src:Topology.addr -> dst:Topology.addr -> msg -> unit;
      (** the engine's message dispatcher, installed at create *)
  on_leader_content : t -> leader -> Types.entry_id -> unit;
      (** composed cross-stage reaction to content arriving at a leader *)
  mutable started : bool;
  mutable node_watch : bool;
      (** per-group local-liveness watchdogs armed (lazily, on the first
          node-level crash/recover — fault-free runs schedule nothing) *)
  mutable adv_hook : adv_hook option;
      (** the adversary interposer; [None] outside adversary drills *)
  mutable trace : Trace.t;
  (* -- live-membership state (massbft_reconfig). In reconfig-free runs
     every array below is the identity configuration and both seams are
     [None], so every membership test reduces to the static path. *)
  active_n : int array;
      (** active node slots per group: slots [0, active_n) participate in
          PBFT quorums; provisioned spares and retired slots do not *)
  g_member : bool array;
      (** instantaneous group membership: gates batching, replication
          sends and execution placement (a dark group neither produces,
          receives nor executes) *)
  member_from : int array;
  member_until : int array;
      (** round-indexed membership window [from, until), read only by the
          round-barrier ordering families; written at the placement seam
          from the epoch-boundary entry's round *)
  mutable reconfig_order : (t -> leader -> entry -> unit) option;
      (** placement seam: fired when a leader's ordering stage places an
          epoch-boundary entry, so membership switches at that position
          of the order (round windows, orderer masks) *)
  mutable reconfig_apply : (t -> leader -> entry -> unit) option;
      (** execution seam: fired when a leader executes an epoch-boundary
          entry (node resizes, crashes, the joiner's clone, key ranges) *)
  mutable fetch_retries : int;
      (** fetch-lane retries rescheduled by backoff, for the obs registry *)
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let now t = Sim.now t.sim

(** One int per (global-consensus instance, log index) pair, keying the
    leaders' accept rounds and unwedge tick counts: instances number
    fewer than the provisioned groups, so the key is unique. *)
let round_key t ~inst ~index = (index * t.ng) + inst

(** The sim shard handle group [gid]'s events are accounted to:
    per-group ticks (Engine.start, Batcher.start, heartbeats) and every
    other event that belongs to one group (fetch timeouts and backoff,
    delayed adversary ships) are scheduled on it. *)
let sim_of t gid = Topology.shard_of t.topo gid
let node_of t (a : Topology.addr) = t.nodes.(a.Topology.g).(a.Topology.n)

(** Leader addressing is dynamic: node 0 by deployment convention, until
    a crash of the acting leader migrates the role within the group.
    Routing to the *current* holder models leader discovery/redirect,
    which settles well under one WAN RTT in a real deployment. *)
let leader_addr t gid = t.leaders.(gid).l_addr

let is_acting_leader t (a : Topology.addr) =
  Topology.addr_equal t.leaders.(a.Topology.g).l_addr a
let alive t (a : Topology.addr) = Topology.alive t.topo a

let entry_of t eid =
  match Entry_tbl.find_opt t.entries eid with
  | Some e -> e
  | None -> invalid_arg ("Engine: unknown entry " ^ Types.entry_id_to_string eid)

(** Quorum math runs over *active* slots, not physical ones: provisioned
    spares and retired slots are outside every certificate. Identical to
    the physical size whenever no reconfiguration plan is armed. *)
let active_size t gid = t.active_n.(gid)
let group_f t gid = Intmath.pbft_f t.active_n.(gid)
let fg t = Intmath.raft_f t.ng

(** Is the group a member of the current configuration (instantaneous —
    gates batching and replication sends)? *)
let member_now t gid = t.g_member.(gid)

(** [member_in_round t gid round]: does the round-barrier ordering
    expect a contribution from [gid] at [round]? *)
let member_in_round t gid round =
  t.member_from.(gid) <= round && round < t.member_until.(gid)

(** Wire size of a full entry copy: batch bytes + the sender group's
    PBFT certificate. *)
let copy_bytes t eid =
  let e = entry_of t eid in
  e.size + Types.certificate_bytes ~n:t.active_n.(eid.Types.gid)

let ship t ~bulk ~src ~dst ~bytes m =
  Topology.send ~bulk t.topo ~src ~dst ~bytes (fun () -> t.deliver t ~src ~dst m)

(** Typed send: charges the topology's NICs/links, then hands the
    message to the engine's dispatcher ([t.deliver]). [bulk] selects the
    NIC service class (entry payloads are bulk, control traffic is not);
    see {!Topology.send}. With no adversary hook a send is one
    [Topology.send]: no per-call closure beyond the delivery
    continuation. *)
let send t ~bulk ~src ~dst ~bytes m =
  match t.adv_hook with
  | None -> ship t ~bulk ~src ~dst ~bytes m
  | Some hook -> (
      match hook ~src ~dst ~bulk ~bytes m with
      | None -> ship t ~bulk ~src ~dst ~bytes m
      | Some ds ->
          (* An empty list withholds the message; a delayed delivery
             holds the rewritten message back before it even reaches the
             sender's NIC (the attacker chooses when to emit). *)
          List.iter
            (fun { adv_msg; adv_delay_s } ->
              if adv_delay_s <= 0.0 then ship t ~bulk ~src ~dst ~bytes adv_msg
              else
                Sim.after (sim_of t src.Topology.g) adv_delay_s (fun () ->
                    ship t ~bulk ~src ~dst ~bytes adv_msg))
            ds)

(** Broadcasts cover the group's *active* slots only — a spare past the
    active prefix is dark until its activation epoch. *)
let broadcast_group t ~bulk ~src ~bytes m =
  let gid = src.Topology.g in
  for n = 0 to t.active_n.(gid) - 1 do
    let dst = { Topology.g = gid; n } in
    if not (Topology.addr_equal src dst) then send t ~bulk ~src ~dst ~bytes m
  done

let charge_cpu t (a : Topology.addr) seconds k =
  Cpu.submit (Topology.cpu t.topo a) ~seconds k

(** Batch signature verification and Aria execution are embarrassingly
    parallel: spread the work over every core of the node, continuing
    when the last slice finishes. *)
let charge_cpu_parallel t (a : Topology.addr) seconds k =
  if seconds <= 0.0 then k ()
  else
    Cpu.submit_parallel (Topology.cpu t.topo a) ~slices:(Topology.cores t.topo)
      ~seconds k

(** Did this entry originate inside the measurement window? *)
let measuring t created_at = created_at >= t.metrics.Metrics.measure_from

let trace_entry t ?(gid = -1) ?(node = -1) ?args (eid : Types.entry_id) name =
  if Trace.enabled t.trace then
    Trace.instant t.trace ~cat:"entry"
      ~gid:(if gid >= 0 then gid else eid.Types.gid)
      ~node ?args
      ~eid:(eid.Types.gid, eid.Types.seq)
      name

(* ------------------------------------------------------------------ *)
(* Content tracking                                                    *)
(* ------------------------------------------------------------------ *)

let has_content node (eid : Types.entry_id) =
  Bitset.mem node.n_content.(eid.Types.gid) eid.Types.seq

(** A node came to hold an entry's full content (formed it, rebuilt it
    from chunks, or received a copy). Stage reactions — fetch-slot
    release, ack guards, GeoBFT commitment, the execution pump — are
    composed into [on_leader_content] by the engine at create. *)
let content_event t (node : node) eid =
  if not (has_content node eid) then begin
    Bitset.add node.n_content.(eid.Types.gid) eid.Types.seq;
    if is_acting_leader t node.n_addr then
      t.on_leader_content t t.leaders.(node.n_addr.Topology.g) eid
  end

(** Release any callbacks parked on this entry's content (Lemma V.1's
    content-gated accepts park here). *)
let run_content_waiters (l : leader) eid =
  match Entry_tbl.find_opt l.l_waiting_content eid with
  | Some cbs ->
      let run = !cbs in
      Entry_tbl.remove l.l_waiting_content eid;
      List.iter (fun k -> k ()) run
  | None -> ()

let when_content t (l : leader) eid k =
  let node = node_of t l.l_addr in
  if has_content node eid then k ()
  else
    let cbs =
      match Entry_tbl.find_opt l.l_waiting_content eid with
      | Some r -> r
      | None ->
          let r = ref [] in
          Entry_tbl.replace l.l_waiting_content eid r;
          r
    in
    cbs := k :: !cbs

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(** The shared label conventions ([group], [node]) so every stage's
    instruments join on the same keys. *)
let obs_group_labels (l : leader) = [ ("group", string_of_int l.l_gid) ]

let obs_node_labels (n : node) =
  [
    ("group", string_of_int n.n_addr.Topology.g);
    ("node", string_of_int n.n_addr.Topology.n);
  ]

(** Register the deployment-wide instruments (transaction totals as
    polled counters, the entry-registry size) in the sampler's registry.
    Part of [Engine.set_obs]. *)
let observe t sampler =
  let reg = Massbft_obs.Sampler.registry sampler in
  let get = Massbft_util.Stats.Counter.get in
  let cnt name help fn =
    Massbft_obs.Registry.counter_fn reg ~name ~help [] fn
  in
  cnt "massbft_txns_committed_total"
    "Aria-committed transactions inside the measurement window" (fun () ->
      get t.metrics.Metrics.committed_txns);
  cnt "massbft_txns_conflict_aborted_total"
    "Aria conflict aborts (retried through the fallback lane)" (fun () ->
      get t.metrics.Metrics.conflicted_txns);
  cnt "massbft_txns_logic_aborted_total"
    "Application-level aborts (executed, outcome abort)" (fun () ->
      get t.metrics.Metrics.logic_aborted_txns);
  cnt "massbft_entries_executed_total"
    "Entries fully executed inside the measurement window" (fun () ->
      get t.metrics.Metrics.entries_executed);
  cnt "massbft_fetch_retries_total"
    "Replication fetch-lane retries rescheduled with backoff" (fun () ->
      t.fetch_retries);
  Massbft_obs.Registry.gauge_fn reg ~name:"massbft_entries_registered"
    ~help:"Entries known to the registry (all states)" [] (fun () ->
      float_of_int (Entry_tbl.length t.entries))
