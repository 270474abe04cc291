(* The engine: a thin conductor over the stage modules.

   Construction derives the three Table II axes of [Config.system] once
   — replication into the context's [repl] field, global consensus and
   ordering into each leader's [l_glob] and [l_ord] state — and wires
   the stages: Local_consensus (per-group PBFT),
   Replication (dissemination + rebuild + fetch), Global_consensus
   (Raft with content-gated acks), Ordering (rounds / epochs / global
   log / VTS), Execution (Aria + ledger), Batcher (load + batching).
   The engine itself only owns message routing ([dispatch]), the
   cross-stage content-arrival composition ([leader_content]),
   lifecycle (create/start/fault injection) and the read-side
   accessors. *)

open Node_ctx

type t = Node_ctx.t

(* ------------------------------------------------------------------ *)
(* Message routing                                                     *)
(* ------------------------------------------------------------------ *)

let dispatch t ~(src : Topology.addr) ~(dst : Topology.addr) m =
  let node = node_of t dst in
  match m with
  | Local pm -> Local_consensus.handle t node ~src pm
  | Chunk { eid; root_tag; index } ->
      Replication.handle_chunk t node ~eid ~root_tag ~index
  | Chunk_fwd { eid; root_tag; index } ->
      Replication.on_chunk_received t node ~eid ~root_tag ~index
  | Copy { eid } ->
      if Replication.handle_copy t node eid then Global_consensus.on_copy t node eid
  | Copy_fwd { eid } -> content_event t node eid
  | Raft_m { inst; rmsg } -> Global_consensus.handle_raft_m t ~src ~dst ~inst rmsg
  | Accept_req { inst; index } ->
      Global_consensus.handle_accept_req t ~src ~dst ~inst ~index
  | Accept_vote { inst; index } ->
      Global_consensus.handle_accept_vote t ~src ~dst ~inst ~index
  | Accept_note { eid } -> Global_consensus.handle_accept_note t ~src ~dst eid
  | Recv_note { eid } -> Global_consensus.handle_recv_note t ~src ~dst eid
  | Fetch_req { eid } -> Replication.handle_fetch_req t node ~src eid

(* Cross-stage reactions to content arriving at a leader, in a fixed
   order: release the fetch slot, run the content-gated ack guards
   (Lemma V.1), let the global stage react (GeoBFT commits here), then
   pump the execution queue. *)
let leader_content t (l : leader) eid =
  Replication.on_content t l eid;
  run_content_waiters l eid;
  Global_consensus.on_content t l eid;
  Execution.pump t l

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The leaders' Raft callbacks and orderers reach the context they are
   part of; the lazy ties that knot, and nothing forces it before the
   context is complete. *)
let create sim topo cfg =
  let ng = Topology.n_groups topo in
  if ng > Sys.int_size then invalid_arg "Engine.create: more groups than executed_by bits";
  let shared_store =
    Kvstore.create
      ~init:(W.preload ~scale:cfg.Config.workload_scale cfg.Config.workload)
      ()
  in
  let nodes =
    Array.init ng (fun g ->
        Array.init (Topology.group_size topo g) (fun n ->
            make_node ~ng { Topology.g; n }))
  in
  let gens =
    W.create_streams ~scale:cfg.Config.workload_scale cfg.Config.workload
      ~seeds:(Array.init ng (fun g -> Int64.add cfg.Config.seed (Int64.of_int (g * 7919))))
  in
  let rec ctx =
    lazy
      (let glob_state g =
         match Config.global_of cfg.Config.system with
         | Config.Per_group_raft ->
             Per_group_raft (Global_consensus.install ctx ~ng ~gid:g ~n_inst:ng)
         | Config.Single_raft ->
             Single_raft
               {
                 raft = Global_consensus.install ctx ~ng ~gid:g ~n_inst:1;
                 proposed = Array.init ng (fun _ -> Bitset.create ());
               }
         | Config.Direct_broadcast -> Direct_broadcast { awaiting = Entry_tbl.create 64 }
       in
       let ord_state g =
         match Config.ordering_of cfg.Config.system with
         | Config.Sync_rounds -> Sync_rounds (make_rounds ())
         | Config.Epoch_rounds -> Epoch_rounds (make_rounds ())
         | Config.Async_vts ->
             Async_vts
               {
                 orderer =
                   Orderer.create ~ng ~on_execute:(fun eid ->
                       let t = Lazy.force ctx in
                       Execution.enqueue t t.leaders.(g) eid);
                 clk = 0;
                 ts =
                   Array.init ng (fun _ ->
                       Array.init ng (fun _ ->
                           { ts_seen = Bitset.create (); ts_committed = Bitset.create () }));
                 clk_of = Array.make ng 0;
                 accept_notes = Entry_tbl.create 64;
               }
         | Config.Global_log -> Global_log
       in
       {
         sim;
         topo;
         cfg;
         ng;
         nodes;
         leaders =
           Array.init ng (fun g ->
               {
                 l_gid = g;
                 l_addr = { Topology.g; n = 0 };
                 l_glob = glob_state g;
                 l_ord = ord_state g;
                 l_ledger = Ledger.create ();
                 l_retry = [];
                 l_gen = gens.(g);
                 l_in_flight = 0;
                 l_next_seq = 1;
                 l_batch_pending = false;
                 l_exec_q = Queue.create ();
                 l_exec_busy = false;
                 l_head_timer = None;
                 l_waiting_content = Entry_tbl.create 64;
                 l_committed_unexec = Entry_tbl.create 64;
                 l_fetching = Entry_tbl.create 16;
                 l_fetch_q = Queue.create ();
                 l_fetch_out = 0;
                 l_pending_conf = Queue.create ();
                 l_vc_target = 0;
                 l_stall_seq = 0;
                 l_stall_ticks = 0;
               });
         entries = Entry_tbl.create 1024;
         plans =
           Array.init ng (fun s ->
               Array.init ng (fun d ->
                   plans_for ~n1:(Topology.group_size topo s)
                     ~n2:(Topology.group_size topo d)));
         metrics = Metrics.create ();
         shared_store;
         repl = Config.replication_of cfg.Config.system;
         deliver = dispatch;
         on_leader_content = leader_content;
         started = false;
         node_watch = false;
         adv_hook = None;
         trace = Trace.null;
         active_n = Array.init ng (Topology.group_size topo);
         g_member = Array.make ng true;
         member_from = Array.make ng 0;
         member_until = Array.make ng max_int;
         reconfig_order = None;
         reconfig_apply = None;
         fetch_retries = 0;
       })
  in
  let t = Lazy.force ctx in
  Local_consensus.install t;
  t

let set_trace t tr =
  t.trace <- tr;
  Trace.set_clock tr (fun () -> Sim.now t.sim);
  Sim.set_trace t.sim tr;
  Topology.set_trace t.topo tr;
  Array.iter
    (fun group ->
      Array.iter
        (fun node ->
          match node.n_pbft with
          | Some p -> Pbft.set_trace p tr ~gid:node.n_addr.Topology.g
          | None -> ())
        group)
    t.nodes;
  Array.iter
    (fun l ->
      match l.l_glob with
      | Per_group_raft r | Single_raft { raft = r; _ } ->
          Array.iteri (fun inst raft -> Raft.set_trace raft tr ~inst) r.rafts
      | Direct_broadcast _ -> ())
    t.leaders

(* Register every stage's instruments in the sampler. Purely read-only:
   probes poll existing stage state, so an observed run commits the
   same entries as an unobserved one. Must run after [create] (replicas
   and Raft instances exist) and before [Sampler.attach] (columns
   freeze there). *)
let set_obs t sampler =
  Node_ctx.observe t sampler;
  Batcher.observe t sampler;
  Local_consensus.observe t sampler;
  Replication.observe t sampler;
  Global_consensus.observe t sampler;
  Ordering.observe t sampler;
  Execution.observe t sampler

(* ------------------------------------------------------------------ *)
(* Start / fault injection                                             *)
(* ------------------------------------------------------------------ *)

let start t =
  if t.started then invalid_arg "Engine.start: already started";
  t.started <- true;
  Batcher.start t;
  Global_consensus.start_heartbeats t

(* ------------------------------------------------------------------ *)
(* Node-level crash / recovery and acting-leader migration             *)
(* ------------------------------------------------------------------ *)

(* Hand the acting-leader role — and with it the leader record, the
   group's *replicated* leader-side state (store, ledger, orderer, Raft
   endpoints) — to the group's new PBFT view leader. Routing to the new
   holder models leader discovery/redirect, which settles well under one
   WAN RTT in a real deployment. The sweep below re-drives the proposer
   pipeline for entries stranded by the crash, after the global stage's
   own reaction (GeoBFT's proposer-window reset):

   - decided at this replica but never globally started (the old acting
     leader died before seeing the decide): stamp [decided_at] and run
     the global phase now;
   - never prepared anywhere (so absent from the New_view reproposals):
     propose afresh in the new view. *)
let migrate_leader t (l : leader) (na : Topology.addr) =
  let old = l.l_addr in
  l.l_addr <- na;
  if Trace.enabled t.trace then
    Trace.instant t.trace ~cat:"engine" ~gid:l.l_gid ~node:na.Topology.n
      ~args:[ ("from", Trace.Int old.Topology.n) ]
      "leader_migrated";
  Global_consensus.on_leader_migrated t l na;
  (match (node_of t na).n_pbft with
  | None -> ()
  | Some pbft ->
      for seq = 1 to l.l_next_seq - 1 do
        let eid = { Types.gid = l.l_gid; seq } in
        match Entry_tbl.find_opt t.entries eid with
        | None -> ()
        | Some e ->
            if e.committed_at = 0.0 then begin
              match Pbft.decided pbft seq with
              | Some _ ->
                  if e.decided_at = 0.0 then begin
                    e.decided_at <- now t;
                    trace_entry t eid "decided" ~node:na.Topology.n;
                    Global_consensus.start t l e
                  end
              | None ->
                  if
                    Pbft.is_leader pbft
                    && (not (Pbft.in_view_change pbft))
                    && not (Pbft.proposed pbft ~seq)
                  then Pbft.propose pbft ~seq ~digest:e.digest
            end
      done);
  Batcher.try_batch t l

(* One watchdog tick for one group: adopt a live replica that already
   leads its PBFT view, or — when the acting leader is down — push the
   survivors' view change toward the first view led by a live node
   (repeated ticks walk the target past dead view leaders). *)
let check_group_leadership t (l : leader) =
  let g = l.l_gid in
  (* Quorum and view math run over the *active* slots — identical to the
     physical group whenever no reconfiguration plan is armed. *)
  let n = active_size t g in
  let live =
    if n < 1 then []
    else List.filter (alive t) (List.init n (fun i -> { Topology.g; n = i }))
  in
  let rec first_live_view v =
    let la = { Topology.g; n = Pbft.leader_of_view ~n ~view:v } in
    if alive t la then v else first_live_view (v + 1)
  in
  let start_view_change target =
    List.iter
      (fun a ->
        match (node_of t a).n_pbft with
        | Some p -> Pbft.start_view_change ~target p
        | None -> ())
      live
  in
  (* [n < 1]: a dark (pre-admission) or expelled group under an armed
     reconfiguration plan — nothing to lead. *)
  if n >= 1 && List.length live >= Intmath.pbft_quorum n then begin
    let live_leader =
      List.find_opt
        (fun a ->
          match (node_of t a).n_pbft with
          | Some p -> Pbft.is_leader p
          | None -> false)
        live
    in
    match live_leader with
    | Some a ->
        if not (Topology.addr_equal a l.l_addr) then migrate_leader t l a
        else begin
          (* Progress watchdog: the acting leader is alive, yet a
             proposal below the batching frontier is stuck undecided —
             the PBFT votes for it died in a crash window and nothing
             retransmits them. Two consecutive stalled ticks drive the
             group to its next live view; the New_view reproposals plus
             the migration sweep then re-drive the stranded pipeline.
             Decisions are final, so the last stall seq doubles as the
             scan cursor. *)
          match (node_of t a).n_pbft with
          | None -> ()
          | Some p ->
              let rec scan seq =
                if seq >= l.l_next_seq then 0
                else if Pbft.decided p seq = None then seq
                else scan (seq + 1)
              in
              let stuck = scan (max 1 l.l_stall_seq) in
              if stuck = 0 then begin
                l.l_stall_seq <- 0;
                l.l_stall_ticks <- 0
              end
              else if stuck = l.l_stall_seq then begin
                l.l_stall_ticks <- l.l_stall_ticks + 1;
                if l.l_stall_ticks >= 2 then begin
                  l.l_stall_ticks <- 0;
                  start_view_change (first_live_view (Pbft.view p + 1))
                end
              end
              else begin
                l.l_stall_seq <- stuck;
                l.l_stall_ticks <- 1
              end
        end
    | None ->
        if not (alive t l.l_addr) then begin
          let maxv =
            List.fold_left
              (fun acc a ->
                match (node_of t a).n_pbft with
                | Some p -> max acc (Pbft.view p)
                | None -> acc)
              0 live
          in
          let target = first_live_view (max (maxv + 1) l.l_vc_target) in
          l.l_vc_target <- target;
          start_view_change target
        end
  end

(* Armed lazily on the first node-level crash/recovery: fault-free runs
   schedule nothing, keeping their event streams bit-identical. Each
   group's tick chain is accounted to that group's shard. *)
let arm_node_watchdogs t =
  if not t.node_watch then begin
    t.node_watch <- true;
    let period = t.cfg.Config.election_timeout_s in
    Array.iter
      (fun l ->
        let rec tick () =
          check_group_leadership t l;
          Sim.after (sim_of t l.l_gid) period tick
        in
        Sim.at (sim_of t l.l_gid) (now t +. period) tick)
      t.leaders
  end

(* The Byzantine-adversary interposer (massbft_adversary) installs its
   message-rewriting hook here. [None] restores the exact fault-free
   send path. *)
let set_adversary t hook = t.adv_hook <- hook

(* Public arming for the adversary engine: an active Byzantine strategy
   (withheld pre-prepares, equivocation) can stall PBFT slots without
   any node ever crashing, so recovery needs the same per-group progress
   watchdogs a crash would have armed. *)
let arm_watchdogs t = arm_node_watchdogs t

let recover_group t g =
  (* Nodes come back up; the anti-entropy probes of the current
     instance-[g] leader catch the group's logs up, after which the
     leader hands instance [g] home via a Timeout_now (transfer-back,
     paper §V-C). No forced elections: a stale-log campaign could only
     depose the working takeover leader without being able to win. *)
  Topology.recover_group t.topo g;
  arm_node_watchdogs t

let crash_group t g =
  Topology.crash_group t.topo g;
  arm_node_watchdogs t

let crash_node t (a : Topology.addr) =
  if not (Topology.valid_addr t.topo a) then
    invalid_arg "Engine.crash_node: bad address";
  Topology.crash t.topo a;
  arm_node_watchdogs t

let recover_node t (a : Topology.addr) =
  if not (Topology.valid_addr t.topo a) then
    invalid_arg "Engine.recover_node: bad address";
  Topology.recover t.topo a;
  (* Post-recovery state transfer: adopt the group's current view so the
     replica votes in it rather than campaigning for a stale one. *)
  (match (node_of t a).n_pbft with
  | None -> ()
  | Some p ->
      let maxv =
        List.fold_left
          (fun acc b ->
            if alive t b && not (Topology.addr_equal a b) then
              match (node_of t b).n_pbft with
              | Some q -> max acc (Pbft.view q)
              | None -> acc
            else acc)
          0
          (Topology.group_nodes t.topo a.Topology.g)
      in
      Pbft.rejoin p ~view:maxv);
  arm_node_watchdogs t

(* ------------------------------------------------------------------ *)
(* Reconfiguration seam                                                *)
(* ------------------------------------------------------------------ *)

(* The reconfiguration controller (massbft_reconfig) spans every stage:
   it provisions topology slots, ships state transfers over the
   topology, and applies membership flips at epoch boundaries. It gets the
   full shared context rather than a bespoke accessor per field. *)
let ctx (t : t) : Node_ctx.t = t

(* Enqueue a reconfiguration-plan event at the coordinator (group 0).
   The batcher forms it into a zero-txn epoch-boundary entry that rides the
   ordinary pipeline, so its position in the total execution order — the
   epoch cut — is agreed by global consensus like any batch. *)
let submit_conf t event =
  let l = t.leaders.(0) in
  Queue.push event l.l_pending_conf;
  Batcher.try_batch t l

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let metrics t = t.metrics
let set_measure_from t at = t.metrics.Metrics.measure_from <- at
(* The leader's ledger is its execution order: one block per executed
   entry, appended in order. *)
let executed_ids t ~gid =
  List.map
    (fun (b : Ledger.block) -> { Types.gid = b.Ledger.gid; seq = b.Ledger.seq })
    (Ledger.blocks t.leaders.(gid).l_ledger)

let n_groups t = t.ng
let group_size t g = Topology.group_size t.topo g
let config t = t.cfg
let acting_leader t ~gid = t.leaders.(gid).l_addr
let raft_instances t =
  match t.leaders.(0).l_glob with
  | Per_group_raft r | Single_raft { raft = r; _ } -> Array.length r.rafts
  | Direct_broadcast _ -> 0

let raft_commit_index t ~gid ~inst =
  match t.leaders.(gid).l_glob with
  | Per_group_raft r | Single_raft { raft = r; _ } -> Raft.commit_index r.rafts.(inst)
  | Direct_broadcast _ -> invalid_arg "Engine.raft_commit_index: no Raft instances"

let replica_decided t ~g ~n ~seq =
  match t.nodes.(g).(n).n_pbft with
  | None -> None
  | Some p -> Pbft.decided p seq

let entry_digest t eid =
  match Entry_tbl.find_opt t.entries eid with
  | Some e -> Some e.digest
  | None -> None

let proposed_seqs t ~gid = t.leaders.(gid).l_next_seq - 1
let store_fingerprint t = Kvstore.fingerprint t.shared_store
let ledger_of t ~gid = t.leaders.(gid).l_ledger

let entries_executed_total t =
  Array.fold_left (fun acc l -> acc + Ledger.height l.l_ledger) 0 t.leaders

let wan_bytes t = Topology.wan_bytes_sent t.topo
let lan_bytes t = Topology.lan_bytes_sent t.topo

let debug_dump t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf fmt in
  Array.iter
    (fun l ->
      line
        "leader g%d alive=%b in_flight=%d next_seq=%d execq=%d executed=%d retry=%d waitc=%d fetch=%d\n"
        l.l_gid (alive t l.l_addr) l.l_in_flight l.l_next_seq
        (Queue.length l.l_exec_q) (Ledger.height l.l_ledger) (List.length l.l_retry)
        (Entry_tbl.length l.l_waiting_content)
        (Entry_tbl.length l.l_fetching);
      line "  fetch: out=%d queued=%d\n" l.l_fetch_out (Queue.length l.l_fetch_q);
      line "  wan backlog: leader=%.2fs last-node=%.2fs\n"
        (Topology.wan_uplink_backlog_s t.topo l.l_addr)
        (Topology.wan_uplink_backlog_s t.topo
           { Topology.g = l.l_gid; n = Topology.group_size t.topo l.l_gid - 1 });
      (match l.l_glob with
      | Direct_broadcast _ -> ()
      | Per_group_raft r | Single_raft { raft = r; _ } ->
          line "  acceptp=%d\n" (Inttbl.length r.accept);
          Array.iteri
            (fun inst raft ->
              let blocking =
                match Raft.entry_at raft (Raft.commit_index raft + 1) with
                | Some (Entry_meta { eid }) -> "EM " ^ Types.entry_id_to_string eid
                | Some (Ts { eid; ts }) ->
                    Printf.sprintf "Ts %s=%d" (Types.entry_id_to_string eid) ts
                | Some Noop -> "noop"
                | None -> "-"
              in
              line "  next-uncommitted: %s acks=[%s]\n" blocking
                (String.concat ","
                   (List.map string_of_int
                      (Raft.acks_for raft (Raft.commit_index raft + 1))));
              line "  inst %d: role=%s term=%d last=%d commit=%d%s heard=%.2f\n" inst
                (match Raft.role raft with
                | Raft.Leader -> "L"
                | Raft.Follower -> "F"
                | Raft.Candidate -> "C")
                (Raft.term raft) (Raft.last_index raft) (Raft.commit_index raft)
                (match l.l_ord with
                | Async_vts v -> Printf.sprintf " clk_of=%d" v.clk_of.(inst)
                | Sync_rounds _ | Epoch_rounds _ | Global_log -> "")
                r.last_heard.(inst))
            r.rafts);
      match l.l_ord with
      | Async_vts v ->
          line "  vts: clk=%d\n" v.clk;
          for g = 0 to t.ng - 1 do
            line "  head[%d] = %s %s\n" g
              (Types.entry_id_to_string (Orderer.head_of v.orderer g))
              (Format.asprintf "%a" Vts.pp (Orderer.head_vts v.orderer g))
          done
      | Sync_rounds _ | Epoch_rounds _ | Global_log -> ())
    t.leaders;
  Buffer.contents buf
