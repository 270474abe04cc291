(** Shared per-deployment context for the engine's stage modules.

    The engine is a thin conductor over explicit stages (Batcher,
    Local_consensus, Replication, Global_consensus, Ordering, Execution);
    this module owns everything they share: the wire-message vocabulary
    and the wire model that gives each message its class and bytes, the
    entry registry, per-node and per-leader state, CPU/NIC charging, the
    trace sink, and typed send/broadcast.

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

(** What each message costs on the wire, its NIC class and its bytes, is
    decided in one place: {!wire}, below the context. *)
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
  conf : int option;
      (** the index of the reconfiguration-plan event this zero-txn
          epoch-boundary entry applies: totally ordered like any batch, so
          every leader applies the membership flip at the same global
          position *)
  mutable txns : Txn.t list;
  mutable fb_txns : Txn.t list;  (** Aria fallback lane: retried conflicts *)
  txn_count : int;
  created_at : float;
  mutable decided_at : float;
  mutable committed_at : float;
  mutable ordered_at : float;
  mutable outcome : Aria.outcome option;  (** memoized execution *)
  mutable executed_by : int;  (** a bit per group that executed it *)
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

(** A leader's open skip-prepare accept round: the distinct voter node
    ids so far (duplicate deliveries, an injectable fault, must not fake
    a quorum) and the continuation the quorum releases. *)
type accept_round = { a_votes : Bitset.t; a_release : unit -> unit }

(** {1 Leader state per Table II axis}

    Each constructor mirrors a {!Config.global_consensus} or
    {!Config.ordering} value and carries only its own fields. *)

(** A leader's endpoints of the global Raft instances and the
    bookkeeping every Raft family runs. *)
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
}

type glob_state =
  | Per_group_raft of raft_state
  | Single_raft of { raft : raft_state; proposed : Bitset.t array }
      (** Steward: [proposed.(gid)] holds the seqs of group [gid]'s
          entries that group 0 has proposed in the one log *)
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

(** A leader's Ts-lane marks for one (instance, proposing group) pair,
    by the entry's sequence number. *)
type ts_marks = {
  ts_seen : Bitset.t;  (** we proposed a Ts record, or one committed *)
  ts_committed : Bitset.t;  (** a Ts record committed (first wins) *)
}

(** MassBFT's asynchronous ordering (Algorithm 2). Its Ts lane runs on
    the per-group Raft instances, one per provisioned group. *)
type vts_state = {
  orderer : Orderer.t;
  mutable clk : int;  (** own committed-entry count: our stamps' value *)
  ts : ts_marks array array;  (** [.(instance).(proposing gid)] *)
  clk_of : int array;
      (** last committed seq per instance: the clock a taken-over
          instance's stamps carry *)
  accept_notes : Bitset.t Entry_tbl.t;
      (** noting groups per entry, dropped when the entry is stamped *)
}

type ord_state =
  | Sync_rounds of rounds
  | Epoch_rounds of rounds  (** epochs of {!Config.epoch_rounds} rounds *)
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
  l_pending_conf : int Queue.t;
      (** plan events awaiting an epoch-boundary entry; the batcher
          drains one per batch slot ahead of client txns *)
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
          changes (see {!plans}) *)
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
  try Entry_tbl.find t.entries eid
  with Not_found -> invalid_arg ("Engine: unknown entry " ^ Types.entry_id_to_string eid)

(** The entry a PBFT message of group [g] names: the group's entry at
    [seq], if [digest] is its digest. A forged digest (equivocation)
    names nothing. *)
let named_entry t g ~seq digest =
  match Entry_tbl.find_opt t.entries { Types.gid = g; seq } with
  | Some e as named when String.equal e.digest digest -> named
  | Some _ | None -> None

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

(** Group [gid]'s leader executed [e]. Once every current member group
    has, its content (transactions, memoized outcome) goes and the
    metadata stays. A group that left holds nothing back; an entry the
    last incumbent ran before a membership flip that a lagging member had
    not yet run keeps its content. *)
let retire t gid e =
  e.executed_by <- e.executed_by lor (1 lsl gid);
  let waiting = ref false in
  Array.iteri
    (fun g m -> if m && e.executed_by land (1 lsl g) = 0 then waiting := true)
    t.g_member;
  if not !waiting then begin
    e.txns <- [];
    e.fb_txns <- [];
    e.outcome <- None
  end

(* ------------------------------------------------------------------ *)
(* The wire model                                                      *)
(* ------------------------------------------------------------------ *)

let plans_for ~n1 ~n2 =
  {
    p_n1 = n1;
    p_n2 = n2;
    p_transfer = lazy (Transfer_plan.generate ~n1 ~n2);
    p_bijective = lazy (Bijective_plan.generate ~n1 ~n2);
  }

(** The deployment's plans from group [src] to group [dst], for the
    groups' active sizes: a reconfiguration that resizes either group
    replaces the pair's plans; otherwise every call returns the same
    record. *)
let plans t ~src ~dst =
  let p = t.plans.(src).(dst) in
  let n1 = active_size t src and n2 = active_size t dst in
  if p.p_n1 = n1 && p.p_n2 = n2 then p
  else begin
    let p = plans_for ~n1 ~n2 in
    t.plans.(src).(dst) <- p;
    p
  end

(** The Algorithm 1 transfer plan from group [src] to group [dst]. *)
let plan_between t ~src ~dst = Lazy.force (plans t ~src ~dst).p_transfer

(* A message's NIC class and wire bytes travel as one int, so a send
   allocates nothing to carry them: the bytes, shifted left one bit,
   with the low bit set for the bulk class. *)
let bulk bytes = (bytes lsl 1) lor 1
let control bytes = bytes lsl 1

(** An entry's wire bytes: a header plus its transactions'. *)
let batch_bytes ~txn_bytes = Types.header_bytes + txn_bytes

(** [wire t ~dst_g m]: the class and bytes of [m] on its way to group
    [dst_g], packed as above. Entry payloads (pre-prepares, chunks, full
    copies) are bulk; the rest is control traffic of one vote, except a
    Raft metadata append, which carries its proposer's certificate, and
    a view change, which carries four votes' worth of proof. *)
let wire t ~dst_g m =
  match m with
  | Local (Pbft.Pre_prepare { seq; digest; _ }) -> (
      match named_entry t dst_g ~seq digest with
      | Some e -> bulk (e.size + Types.header_bytes + Types.signature_bytes)
      | None -> bulk Types.vote_bytes)
  | Local (Pbft.Prepare _ | Pbft.Commit _) -> control Types.vote_bytes
  | Local (Pbft.View_change _ | Pbft.New_view _) -> control (4 * Types.vote_bytes)
  | Chunk { eid; _ } | Chunk_fwd { eid; _ } ->
      bulk
        (Chunker.chunk_wire_size
           ~plan:(plan_between t ~src:eid.Types.gid ~dst:dst_g)
           ~entry_len:(entry_of t eid).size)
  | Copy { eid } | Copy_fwd { eid } ->
      bulk
        (Types.copy_bytes ~n:(active_size t eid.Types.gid)
           ~entry_len:(entry_of t eid).size)
  | Raft_m { rmsg = Raft.Append { entry = Entry_meta { eid }; _ }; _ } ->
      control (Types.raft_meta_bytes ~n:(active_size t eid.Types.gid))
  | Raft_m _ | Accept_req _ | Accept_vote _ | Accept_note _ | Recv_note _
  | Fetch_req _ ->
      control Types.vote_bytes

let ship t ~bulk ~src ~dst ~bytes m =
  Topology.send ~bulk t.topo ~src ~dst ~bytes (fun () -> t.deliver t ~src ~dst m)

(* One send at the class and size {!wire} decided: through the adversary
   hook when one is installed. A rewritten message ships at the
   original's class and size. *)
let emit t w ~src ~dst m =
  let bulk = w land 1 = 1 and bytes = w asr 1 in
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

(** Typed send: {!wire} decides the message's class and bytes, then the
    topology charges the NICs/links and hands the message to the
    engine's dispatcher ([t.deliver]); see {!Topology.send}. With no
    adversary hook a send allocates only what [Topology.send] and the
    delivery continuation do, plus a pre-prepare's entry lookup. *)
let send t ~src ~dst m = emit t (wire t ~dst_g:dst.Topology.g m) ~src ~dst m

(** Broadcasts cover the group's *active* slots only — a spare past the
    active prefix is dark until its activation epoch. The message's
    class and bytes are decided once for the whole broadcast. *)
let broadcast_group t ~src m =
  let gid = src.Topology.g in
  let w = wire t ~dst_g:gid m in
  for n = 0 to t.active_n.(gid) - 1 do
    let dst = { Topology.g = gid; n } in
    if not (Topology.addr_equal src dst) then emit t w ~src ~dst m
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
