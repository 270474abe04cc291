(* Shared per-deployment context for the engine's stage modules.

   The engine is a thin conductor over explicit stages (Batcher,
   Local_consensus, Replication, Global_consensus, Ordering, Execution);
   this module owns everything they share: the wire-message vocabulary,
   the entry registry, per-node and per-leader state, CPU/NIC charging,
   the trace sink, and typed send/broadcast.

   Messages are delivered through the [deliver] field — the engine's
   dispatcher, installed once at construction (`let rec` ties the knot),
   replacing the old module-global `handler : (...) ref` forward
   declaration. Cross-stage reactions to content arrival go through
   [on_leader_content], a composition the engine also fixes at
   construction, so no stage needs a forward reference to another.

   [Config.system] is resolved exactly once, at [Engine.create], into
   the [strategies] record: one strategy value per Table II axis
   (replication / global consensus / ordering), each a record of
   closures the stages consult instead of re-matching configuration
   variants per message. *)

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
module ISet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Wire messages                                                       *)
(* ------------------------------------------------------------------ *)

(* Payloads of the global Raft instances: entry metadata (digest +
   certificate; the content travels by the replication strategy) and
   vector-timestamp records. *)
type rpayload =
  | Entry_meta of { eid : Types.entry_id }
  | Ts of { eid : Types.entry_id; ts : int }
  | Noop
      (* replaces an unrecoverable dead-group entry in a taken-over log *)

type msg =
  | Local of Pbft.msg  (* intra-group batch consensus *)
  | Chunk of { eid : Types.entry_id; root_tag : string; index : int }
  | Chunk_fwd of { eid : Types.entry_id; root_tag : string; index : int }
  | Copy of { eid : Types.entry_id }  (* full entry copy *)
  | Copy_fwd of { eid : Types.entry_id }
  | Raft_m of { inst : int; rmsg : rpayload Raft.msg }
  | Accept_req of { tag : string }
  | Accept_vote of { tag : string }
  | Accept_note of { eid : Types.entry_id }
  | Recv_note of { eid : Types.entry_id }  (* GeoBFT delivery credit *)
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
type adv_delivery = { adv_msg : msg; adv_delay_s : float }

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
  size : int;  (* wire bytes of the batch *)
  conf : string option;
      (* a reconfiguration command riding the pipeline as a zero-txn
         epoch-boundary entry: totally ordered like any batch, so every
         leader applies the membership flip at the same global position *)
  mutable txns : Txn.t list;
  mutable fb_txns : Txn.t list;  (* Aria fallback lane: retried conflicts *)
  txn_count : int;
  created_at : float;
  mutable decided_at : float;
  mutable committed_at : float;
  mutable ordered_at : float;
  mutable outcome : Aria.outcome option;  (* memoized execution *)
  mutable exec_count : int;  (* leaders that executed it, for pruning *)
}

(* Symbolic receiver-side rebuild state: the bucket-classification logic
   of Rebuild, over virtual chunk identities (root tags instead of real
   Merkle roots). Byte-level behaviour is covered by Rebuild's tests;
   sizes here match Chunker.chunk_wire_size exactly. *)
type rsym = {
  rb_buckets : (string, ISet.t ref) Hashtbl.t;
  mutable rb_black : ISet.t;
  mutable rb_done : bool;
}

type node = {
  n_addr : Topology.addr;
  mutable n_pbft : Pbft.t option;
  n_content : unit Entry_tbl.t;
  n_rebuilds : rsym Entry_tbl.t;
  mutable n_byz : bool;
}

type leader = {
  l_gid : int;
  mutable l_addr : Topology.addr;
      (* the node currently acting as the group's leader. Fixed at node 0
         until a node-level crash of the acting leader drives a PBFT view
         change, after which the engine migrates the role (and this
         record — the group's replicated leader-side state) to the new
         view's live leader. *)
  mutable l_rafts : rpayload Raft.t array;  (* per instance; may be empty *)
  mutable l_orderer : Orderer.t option;
  l_store : Kvstore.t;
  l_ledger : Ledger.t;
  mutable l_clk : int;  (* own committed-entry count *)
  l_clk_of : int array;  (* last committed seq per instance *)
  mutable l_retry : Txn.t list;
  l_gen : W.t;
  mutable l_in_flight : int;
  mutable l_next_seq : int;
  mutable l_batch_pending : bool;
  l_exec_q : Types.entry_id Queue.t;
  mutable l_exec_busy : bool;
  mutable l_executed_rev : Types.entry_id list;
  mutable l_executed_count : int;
  l_accept_pending : (string, unit -> unit) Hashtbl.t;
  l_accept_votes : (string, ISet.t ref) Hashtbl.t;
      (* distinct voter node-ids per tag: duplicate deliveries (an
         injectable fault) must not fake a quorum *)
  l_accept_notes : int ref Entry_tbl.t;
  l_ts_mark : (string, unit) Hashtbl.t;  (* Ts proposed, key inst|gid|seq *)
  l_ts_seen : (string, unit) Hashtbl.t;  (* Ts committed (first wins) *)
  l_last_heard : float array;  (* per instance *)
  l_waiting_content : (unit -> unit) list ref Entry_tbl.t;
  l_committed_unexec : unit Entry_tbl.t;
  l_round_ready : unit Entry_tbl.t;
  mutable l_next_round : int;
  l_recv_notes : int ref Entry_tbl.t;
  l_steward_proposed : unit Entry_tbl.t;
  l_fetching : int ref Entry_tbl.t;  (* wanted content, with attempt count *)
  l_fetch_q : Types.entry_id Queue.t;
  mutable l_fetch_out : int;  (* outstanding fetch requests *)
  l_pending_conf : string Queue.t;
      (* reconfiguration commands awaiting an epoch-boundary entry; the
         batcher drains one per batch slot ahead of client txns *)
  l_deferred : Types.entry_id Queue.t;
      (* execution enqueues buffered while this group is not yet a
         member (a joining group catching up); replayed at cutover *)
  mutable l_skip_commits_below : int array;
      (* per global-consensus instance: commit indices at or below this
         are history a joining leader received via state transfer, not
         work to re-execute (raft backfill replays the whole log) *)
  l_stuck : (string, int ref) Hashtbl.t;
      (* ticks a led instance's head-of-line entry has been unackable *)
  mutable l_vc_target : int;
      (* highest local view-change target the engine's liveness watchdog
         has driven for this group (0 when never driven) *)
  mutable l_stall_seq : int;
      (* lowest proposed-but-undecided local sequence number at the last
         watchdog tick (0 when none); also the scan cursor — decisions
         below it are final *)
  mutable l_stall_ticks : int;
      (* consecutive watchdog ticks the same sequence number has been
         stuck; two ticks drive a view change to recover lost votes *)
}

(* ------------------------------------------------------------------ *)
(* The context and the strategy records                                *)
(* ------------------------------------------------------------------ *)

type t = {
  sim : Sim.t;
  topo : Topology.t;
  cfg : Config.t;
  ng : int;
  nodes : node array array;
  leaders : leader array;
  entries : entry Entry_tbl.t;
  by_digest : (string, entry) Hashtbl.t;
  plans : Transfer_plan.t option array array;  (* [src_group][dst_group] *)
  metrics : Metrics.t;
  shared_store : Kvstore.t;
  strat : strategies;
  deliver : t -> src:Topology.addr -> dst:Topology.addr -> msg -> unit;
      (* the engine's message dispatcher, installed at create *)
  on_leader_content : t -> leader -> Types.entry_id -> unit;
      (* composed cross-stage reaction to content arriving at a leader *)
  mutable started : bool;
  mutable node_watch : bool;
      (* per-group local-liveness watchdogs armed (lazily, on the first
         node-level crash/recover — fault-free runs schedule nothing) *)
  mutable adv_hook : adv_hook option;
      (* the adversary interposer; [None] outside adversary drills *)
  mutable trace : Trace.t;
  (* -- live-membership state (massbft_reconfig). In reconfig-free runs
     every array below is the identity configuration and [reconfig_on]
     is false, so nothing off the static path is ever consulted. *)
  active_n : int array;
      (* active node slots per group: slots [0, active_n) participate in
         PBFT quorums; provisioned spares and retired slots do not *)
  g_member : bool array;
      (* instantaneous group membership: gates batching and replication
         sends (a dark group neither produces nor receives) *)
  member_from : int array;
  member_until : int array;
      (* round-indexed membership window [from, until) for the round-
         barrier ordering families; derived deterministically from the
         position of the epoch-boundary entry in the total order *)
  mutable reconfig_on : bool;  (* a reconfiguration plan is armed *)
  mutable reconfig_apply : (t -> leader -> entry -> unit) option;
      (* the reconfig controller's apply hook, invoked by the execution
         stage when a leader executes an epoch-boundary entry *)
  mutable reconfig_round : (t -> entry -> int -> unit) option;
      (* round-barrier seam: the first leader to close the round holding
         an epoch-boundary entry registers the round-indexed membership
         masks (idempotent, and deterministic because derived from the
         entry's position) before any leader evaluates the next round *)
  mutable fetch_retries : int;
      (* fetch-lane retries rescheduled by backoff, for the obs registry *)
}

(* The Table II axes as first-class strategy records, resolved from
   [Config.system] once at [Engine.create]. *)
and strategies = {
  repl : repl_strategy;
  glob : glob_strategy;
  ord : ord_strategy;
}

and repl_strategy = {
  r_on_decide : t -> node -> entry -> unit;
      (* per-node dissemination when local consensus decides a batch
         (chunks for encoded-bijective, full copies for bijective; the
         one-way strategy ships from the global-consensus stage instead) *)
  r_oneway : bool;
      (* leader ships f+1 one-way copies during the global phase *)
  r_coding_s : t -> entry -> float;  (* coding CPU charged per entry *)
}

and glob_strategy = {
  g_instances : int -> int;  (* Raft instances for [ng] groups *)
  g_start : t -> leader -> entry -> unit;
      (* the proposer's leader starts the global phase of its entry *)
  g_on_content : t -> leader -> Types.entry_id -> unit;
      (* content arrived at a leader (GeoBFT treats this as commitment) *)
  g_on_copy : t -> node -> Types.entry_id -> unit;
      (* a full copy landed (Steward forwards remote entries at G0) *)
}

and ord_strategy = {
  o_allows : t -> leader -> int -> bool;
      (* may the group propose sequence number [seq] yet? *)
  o_on_commit : t -> leader -> Types.entry_id -> unit;
      (* an entry committed globally (round systems mark the round,
         Steward's global log executes in commit order, VTS waits for
         timestamps instead) *)
  o_vts : bool;  (* asynchronous VTS ordering is active *)
  o_rounds : bool;  (* ordering advances by round barriers over groups *)
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let now t = Sim.now t.sim

(* The sim shard handle group [gid]'s events are accounted to — the
   handle arm-time code (Engine.start, Batcher.start, heartbeats)
   schedules per-group ticks on. *)
let sim_of t gid = Topology.shard_of t.topo gid
let node_of t (a : Topology.addr) = t.nodes.(a.Topology.g).(a.Topology.n)

(* Leader addressing is dynamic: node 0 by deployment convention, until
   a crash of the acting leader migrates the role within the group.
   Routing to the *current* holder models leader discovery/redirect,
   which settles well under one WAN RTT in a real deployment. *)
let leader_addr t gid = t.leaders.(gid).l_addr

let is_acting_leader t (a : Topology.addr) =
  Topology.addr_equal t.leaders.(a.Topology.g).l_addr a
let alive t (a : Topology.addr) = Topology.alive t.topo a
let cpu_of t (a : Topology.addr) = Topology.cpu t.topo a

let register_entry t (e : entry) =
  Entry_tbl.replace t.entries e.eid e;
  Hashtbl.replace t.by_digest e.digest e

let entry_by_digest t digest = Hashtbl.find_opt t.by_digest digest
let entries_snapshot t = Entry_tbl.fold (fun _ e acc -> e :: acc) t.entries []
let registered_entries t = Entry_tbl.length t.entries

let entry_of t eid =
  match Entry_tbl.find_opt t.entries eid with
  | Some e -> e
  | None -> invalid_arg ("Engine: unknown entry " ^ Types.entry_id_to_string eid)

(* Quorum math runs over *active* slots, not physical ones: provisioned
   spares and retired slots are outside every certificate. Identical to
   the physical size whenever no reconfiguration plan is armed. *)
let active_size t gid = t.active_n.(gid)
let group_f t gid = Intmath.pbft_f t.active_n.(gid)
let fg t = Intmath.raft_f t.ng
let member_now t gid = t.g_member.(gid)

let member_in_round t gid round =
  t.member_from.(gid) <= round && round < t.member_until.(gid)

let copy_bytes t eid =
  let e = entry_of t eid in
  e.size + Types.certificate_bytes ~n:t.active_n.(eid.Types.gid)

let send ?(bulk = false) t ~src ~dst ~bytes m =
  let ship m =
    Topology.send ~bulk t.topo ~src ~dst ~bytes (fun () ->
        t.deliver t ~src ~dst m)
  in
  match t.adv_hook with
  | None -> ship m
  | Some hook -> (
      match hook ~src ~dst ~bulk ~bytes m with
      | None -> ship m
      | Some ds ->
          (* An empty list withholds the message; a delayed delivery
             holds the rewritten message back before it even reaches the
             sender's NIC (the attacker chooses when to emit). *)
          List.iter
            (fun { adv_msg; adv_delay_s } ->
              if adv_delay_s <= 0.0 then ship adv_msg
              else
                ignore
                  (Sim.after t.sim adv_delay_s (fun () -> ship adv_msg)))
            ds)

(* Broadcasts cover the group's *active* slots only — a spare past the
   active prefix is dark until its activation epoch. *)
let broadcast_group ?(bulk = false) t ~src ~bytes m =
  let gid = src.Topology.g in
  for n = 0 to t.active_n.(gid) - 1 do
    let dst = { Topology.g = gid; n } in
    if not (Topology.addr_equal src dst) then send ~bulk t ~src ~dst ~bytes m
  done

let charge_cpu t (a : Topology.addr) seconds k = Cpu.submit (cpu_of t a) ~seconds k

(* Batch signature verification and Aria execution are embarrassingly
   parallel: spread the work over every core, continuing when the last
   slice finishes. *)
let charge_cpu_parallel t (a : Topology.addr) seconds k =
  let cores = Topology.cores t.topo in
  if seconds <= 0.0 then k ()
  else begin
    let slice = seconds /. float_of_int cores in
    let remaining = ref cores in
    for _ = 1 to cores do
      Cpu.submit (cpu_of t a) ~seconds:slice (fun () ->
          decr remaining;
          if !remaining = 0 then k ())
    done
  end

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

let has_content node eid = Entry_tbl.mem node.n_content eid

(* A node came to hold an entry's full content (formed it, rebuilt it
   from chunks, or received a copy). Stage reactions — fetch-slot
   release, ack guards, GeoBFT commitment, the execution pump — are
   composed into [on_leader_content] by the engine at create. *)
let content_event t (node : node) eid =
  if not (has_content node eid) then begin
    Entry_tbl.replace node.n_content eid ();
    if is_acting_leader t node.n_addr then
      t.on_leader_content t t.leaders.(node.n_addr.Topology.g) eid
  end

(* Release any callbacks parked on this entry's content (Lemma V.1's
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

let obs_group_labels (l : leader) = [ ("group", string_of_int l.l_gid) ]

let obs_node_labels (n : node) =
  [
    ("group", string_of_int n.n_addr.Topology.g);
    ("node", string_of_int n.n_addr.Topology.n);
  ]

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
      float_of_int (registered_entries t))
