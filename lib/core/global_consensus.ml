(* Global-consensus stage: the Raft adapter with content-gated acks
   (Lemma V.1) and the skip-prepare accept rounds they gate on, plus
   heartbeats/elections and log unwedging. The VTS stamping lane it
   drives lives in Ordering. Each handler matches on the leader's
   global-consensus state (Table II's global-consensus axis):

   - [Per_group_raft]: one Raft instance per group, led by that group's
     leader; followers of an instance are the other groups' leaders
     (MassBFT / Baseline / ISS / BR / EBR).
   - [Single_raft]: Steward — one global Raft at group 0; remote
     entries are forwarded to G0 as full copies and proposed there.
   - [Direct_broadcast]: GeoBFT — no global consensus; content arrival
     at every group is the commitment event, credited back to the
     proposer with Recv_notes, one per group its copy went to. *)

open Node_ctx

let raft_msg_bytes t rmsg =
  match rmsg with
  | Raft.Append { entry = Entry_meta _; _ } ->
      Types.raft_meta_bytes ~n:(active_size t 0)
  | Raft.Append { entry = Ts _; _ } | Raft.Append { entry = Noop; _ }
  | Raft.Replace _ ->
      Types.vote_bytes
  | Raft.Append_ack _ | Raft.Commit_note _ | Raft.Request_vote _
  | Raft.Vote _ | Raft.Probe _ | Raft.Probe_reply _ | Raft.Timeout_now _ ->
      Types.vote_bytes

(* ------------------------------------------------------------------ *)
(* Skip-prepare accept rounds                                          *)
(* ------------------------------------------------------------------ *)

(* The accept decision on a remote entry skips PBFT's prepare phase:
   the leader broadcasts the request and collects a quorum of direct
   votes (the skip-prepare variant of §V-B). The content-gated ack
   guards below drive it. *)

let accept_round t (l : leader) r ~inst ~index k =
  let quorum = Intmath.pbft_quorum (active_size t l.l_gid) in
  if quorum <= 1 then k ()
  else begin
    (* Votes are a set of voter node ids (the leader's own vote counts),
       so duplicated deliveries cannot inflate the tally. *)
    let a_votes = Bitset.create () in
    Bitset.add a_votes l.l_addr.Topology.n;
    Inttbl.replace r.accept (round_key t ~inst ~index) { a_votes; a_release = k };
    broadcast_group ~bulk:false t ~src:l.l_addr ~bytes:Types.vote_bytes
      (Accept_req { inst; index })
  end

let handle_accept_req t ~(src : Topology.addr) ~(dst : Topology.addr) ~inst ~index =
  (* Follower's vote in the skip-prepare accept round. *)
  send ~bulk:false t ~src:dst ~dst:src ~bytes:Types.vote_bytes
    (Accept_vote { inst; index })

let handle_accept_vote t ~(src : Topology.addr) ~(dst : Topology.addr) ~inst ~index =
  if is_acting_leader t dst then
    match t.leaders.(dst.Topology.g).l_glob with
    | Per_group_raft r | Single_raft { raft = r; _ } -> (
        let key = round_key t ~inst ~index in
        match Inttbl.find_opt r.accept key with
        | None -> ()
        | Some a ->
            Bitset.add a.a_votes src.Topology.n;
            let quorum = Intmath.pbft_quorum (active_size t dst.Topology.g) in
            if Bitset.cardinal a.a_votes >= quorum then begin
              Inttbl.remove r.accept key;
              a.a_release ()
            end)
    | Direct_broadcast _ -> ()

let handle_accept_note t ~(src : Topology.addr) ~(dst : Topology.addr) eid =
  if is_acting_leader t dst then begin
    let l = t.leaders.(dst.Topology.g) in
    match (l.l_glob, l.l_ord) with
    | (Per_group_raft r | Single_raft { raft = r; _ }), Async_vts v ->
        (* [assign_ts] never stamps our own group's entries nor one
           already stamped here, so no note is kept for those; it drops
           the notes of an entry it stamps. *)
        if eid.Types.gid = l.l_gid || Ordering.stamped l r eid then
          Entry_tbl.remove v.accept_notes eid
        else begin
          let notes =
            match Entry_tbl.find_opt v.accept_notes eid with
            | Some n -> n
            | None ->
                let n = Bitset.create () in
                Entry_tbl.replace v.accept_notes eid n;
                n
          in
          (* Notes are a set of noting groups, so a duplicated or
             replayed note cannot inflate the tally. *)
          Bitset.add notes src.Topology.g;
          (* f_g + 1 groups holding the entry imply it is replicated;
             the proposer counts implicitly, so notes from f_g distinct
             groups suffice for a slow receiver to stamp the entry
             without holding it (§V-C). *)
          if Bitset.cardinal notes >= max 1 (fg t) then Ordering.assign_ts l r eid
        end
    | (Per_group_raft _ | Single_raft _ | Direct_broadcast _),
      (Sync_rounds _ | Epoch_rounds _ | Async_vts _ | Global_log) ->
        ()
  end

(* ------------------------------------------------------------------ *)
(* Raft callbacks                                                      *)
(* ------------------------------------------------------------------ *)

let on_raft_deliver t (l : leader) r payload =
  match payload with
  | Noop -> ()
  | Entry_meta { eid } ->
      (* Overlapped assignment (Fig. 7b): stamp on the propose message.
         The serial variant (Fig. 7a) waits for the entry's own commit
         (handled in on_raft_commit), costing one extra RTT. *)
      if t.cfg.Config.overlapped_vts then Ordering.assign_ts l r eid
  | Ts _ -> ()

(* Content-gated acks: a follower acknowledges an Entry_meta only after
   holding the entry's content and passing a local accept round, and a
   Ts only for an entry it holds (Lemma V.1). *)
let ack_guard t (l : leader) r inst ~index payload release =
  match payload with
  | Noop -> release ()
  | Entry_meta { eid } ->
      Replication.fetch_after_timeout t l eid;
      when_content t l eid (fun () ->
          (* Verify the sender group's certificate, then reach local
             consensus on the accept decision (skip-prepare PBFT). *)
          let cert_cost =
            float_of_int (Intmath.pbft_quorum (active_size t eid.Types.gid))
            *. t.cfg.Config.cost.Config.sig_verify_s
          in
          charge_cpu t l.l_addr cert_cost (fun () ->
              if alive t l.l_addr then
                accept_round t l r ~inst ~index
                  (fun () ->
                    release ();
                    (* Slow-receiver support (§V-C): advertise the
                       accept to every group directly. Only the
                       VTS-ordered system (MassBFT) runs this lane —
                       round-based systems synchronize through their
                       rounds instead. *)
                    match l.l_ord with
                    | Async_vts _ ->
                        for j = 0 to t.ng - 1 do
                          if j <> l.l_gid && member_now t j then
                            send ~bulk:false t ~src:l.l_addr
                              ~dst:(leader_addr t j) ~bytes:Types.vote_bytes
                              (Accept_note { eid })
                        done
                    | Sync_rounds _ | Epoch_rounds _ | Global_log -> ())))
  | Ts { eid; _ } ->
      Replication.fetch_after_timeout t l eid;
      when_content t l eid release

let on_raft_commit t (l : leader) r inst payload =
  match payload with
  | Noop -> ()
  | Entry_meta { eid } ->
      let e = entry_of t eid in
      r.clk_of.(inst) <- eid.Types.seq;
      Entry_tbl.replace l.l_committed_unexec eid ();
      if not t.cfg.Config.overlapped_vts then Ordering.assign_ts l r eid;
      Ordering.on_commit t l eid;
      (* A recovered leader may re-propose an in-flight entry that in
         fact committed twice; account it once. *)
      if eid.Types.gid = l.l_gid && e.committed_at = 0.0 then begin
        e.committed_at <- now t;
        trace_entry t e.eid "committed" ~node:0;
        l.l_in_flight <- l.l_in_flight - 1;
        Batcher.try_batch t l
      end;
      Ordering.stamp_led_instances r eid
  | Ts { eid; ts } -> Ordering.on_ts_commit l r inst ~eid ~ts

let on_raft_role t (l : leader) r inst role =
  if role = Raft.Leader then begin
    if inst = l.l_gid then
      (* Transfer-back after recovery: in-flight entries whose proposals
         died with the old term are re-proposed in sequence order. *)
      for seq = 1 to l.l_next_seq - 1 do
        let eid = { Types.gid = l.l_gid; seq } in
        match Entry_tbl.find_opt t.entries eid with
        | Some e when e.committed_at = 0.0 ->
            ignore (Raft.propose r.rafts.(inst) (Entry_meta { eid }))
        | _ -> ()
      done;
    Ordering.stamp_committed_unexec l r inst
  end

(* A taken-over instance can inherit the dead leader's in-flight
   entries whose chunk dissemination never completed: no live group
   holds their content, so the content-gated accepts (Lemma V.1) can
   never arrive and the whole log wedges behind them. Such entries can
   never have committed anywhere (commitment needs a majority of
   content-holding groups), so after fetching from every group fails
   they are safely replaced with no-ops. *)
let unwedge_check t (l : leader) r inst raft =
  let idx = Raft.commit_index raft + 1 in
  if idx <= Raft.last_index raft then begin
    let blocked_eid =
      match Raft.entry_at raft idx with
      | Some (Entry_meta { eid }) | Some (Ts { eid; _ }) ->
          if has_content (node_of t l.l_addr) eid then None else Some eid
      | Some Noop | None -> None
    in
    match blocked_eid with
    | None -> ()
    | Some eid ->
        let key = round_key t ~inst ~index:idx in
        let ticks =
          match Inttbl.find_opt r.stuck key with
          | Some n -> n
          | None ->
              let n = ref 0 in
              Inttbl.replace r.stuck key n;
              n
        in
        incr ticks;
        if !ticks = 1 then Replication.want_fetch t l eid
        else if !ticks >= 4 then begin
          Inttbl.remove r.stuck key;
          trace_entry t eid "unwedge_noop" ~gid:l.l_gid ~node:0
            ~args:[ ("inst", Trace.Int inst); ("index", Trace.Int idx) ];
          Raft.replace_uncommitted raft ~index:idx Noop
        end
  end

(* ------------------------------------------------------------------ *)
(* Steward's single-log proposal path                                  *)
(* ------------------------------------------------------------------ *)

let steward_propose t (l : leader) r proposed e =
  if not (Entry_tbl.mem proposed e.eid) then begin
    Entry_tbl.replace proposed e.eid ();
    Replication.send_oneway_copies t l e ~skip:[ e.eid.Types.gid ];
    if Raft.role r.rafts.(0) = Raft.Leader then
      ignore (Raft.propose r.rafts.(0) (Entry_meta { eid = e.eid }))
  end

(* ------------------------------------------------------------------ *)
(* GeoBFT's receive notes                                              *)
(* ------------------------------------------------------------------ *)

(* Group [g] noted [eid] (or left the membership): clear its bit. The
   last bit releases the entry's pipeline slot and drops the binding, so
   a late or duplicated note finds nothing. The floor only matters after
   a leader migration reset the window (an entry started before it
   releases against the new window); fault-free runs never hit it. *)
let clear_note t (l : leader) awaiting eid g =
  match Entry_tbl.find_opt awaiting eid with
  | None -> ()
  | Some groups ->
      Bitset.remove groups g;
      if Bitset.cardinal groups = 0 then begin
        Entry_tbl.remove awaiting eid;
        if l.l_in_flight > 0 then l.l_in_flight <- l.l_in_flight - 1;
        Batcher.try_batch t l
      end

let handle_recv_note t ~(src : Topology.addr) ~(dst : Topology.addr) eid =
  if is_acting_leader t dst then
    let l = t.leaders.(dst.Topology.g) in
    match l.l_glob with
    | Direct_broadcast { awaiting } -> clear_note t l awaiting eid src.Topology.g
    | Per_group_raft _ | Single_raft _ -> ()

let forget_group t g =
  Array.iter
    (fun l ->
      match l.l_glob with
      | Direct_broadcast { awaiting } ->
          List.iter
            (fun eid -> clear_note t l awaiting eid g)
            (Entry_tbl.fold (fun eid _ acc -> eid :: acc) awaiting [])
      | Per_group_raft _ | Single_raft _ -> ())
    t.leaders

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)
(* ------------------------------------------------------------------ *)

let handle_raft_m t ~(src : Topology.addr) ~(dst : Topology.addr) ~inst rmsg =
  (* A leader outside the current membership (a joining group still in
     state transfer, a removed group draining away) must not feed its
     Raft logs: commits its instances processed before the cutover clone
     would be consumed exactly once and then wiped with the cloned
     state, silently losing them. After the epoch flip the anti-entropy
     probes backfill everything, gated by [skip_commits_below]. *)
  if is_acting_leader t dst && member_now t dst.Topology.g then
    match t.leaders.(dst.Topology.g).l_glob with
    | Per_group_raft r | Single_raft { raft = r; _ } ->
        if inst < Array.length r.rafts then begin
          r.last_heard.(inst) <- now t;
          Raft.handle r.rafts.(inst) ~from:src.Topology.g rmsg
        end
    | Direct_broadcast _ -> ()

(* ------------------------------------------------------------------ *)
(* The global-consensus axis                                           *)
(* ------------------------------------------------------------------ *)

(* The proposer's leader starts the global phase of its decided entry. *)
let start t (l : leader) e =
  match l.l_glob with
  | Per_group_raft r ->
      Replication.on_global_start t l e;
      if Raft.role r.rafts.(l.l_gid) = Raft.Leader then
        ignore (Raft.propose r.rafts.(l.l_gid) (Entry_meta { eid = e.eid }))
  | Single_raft { raft; proposed } ->
      if l.l_gid = 0 then steward_propose t l raft proposed e
      else
        (* Forward the certified entry to the global leader group. *)
        send ~bulk:true t ~src:l.l_addr ~dst:(leader_addr t 0)
          ~bytes:(copy_bytes t e.eid) (Copy { eid = e.eid })
  | Direct_broadcast { awaiting } ->
      Replication.send_oneway_copies t l e ~skip:[];
      (* The slot is held until every group the copy went to — the
         members other than us; a dark group gets none — notes it. *)
      let first = e.committed_at = 0.0 in
      if first then begin
        let groups = Bitset.create () in
        for j = 0 to t.ng - 1 do
          if j <> l.l_gid && member_now t j then Bitset.add groups j
        done;
        Entry_tbl.replace awaiting e.eid groups;
        (* A lone member group awaits nobody. *)
        if Bitset.cardinal groups = 0 then clear_note t l awaiting e.eid l.l_gid
      end;
      (* No global consensus: the entry is ready for ordering here. *)
      Ordering.mark_round_ready t l e.eid;
      if first then begin
        e.committed_at <- now t;
        trace_entry t e.eid "committed" ~node:0
      end

(* GeoBFT: content arrival is the commitment event — credit the
   proposer and mark the entry's round. *)
let credit_content t (l : leader) eid =
  if eid.Types.gid <> l.l_gid then
    send ~bulk:false t ~src:l.l_addr
      ~dst:(leader_addr t eid.Types.gid)
      ~bytes:Types.vote_bytes (Recv_note { eid });
  Ordering.mark_round_ready t l eid

(* Content arrived at a leader (part of the engine's on-leader-content
   composition). *)
let on_content t (l : leader) eid =
  match l.l_glob with
  | Direct_broadcast _ -> credit_content t l eid
  | Per_group_raft _ | Single_raft _ -> ()

(* A full copy brought a node new content: Steward's global leader
   proposes remote entries in its single log. *)
let on_copy t (node : node) eid =
  let l = t.leaders.(0) in
  match l.l_glob with
  | Single_raft { raft; proposed } ->
      if
        is_acting_leader t node.n_addr
        && node.n_addr.Topology.g = 0
        && eid.Types.gid <> 0
      then steward_propose t l raft proposed (entry_of t eid)
  | Per_group_raft _ | Direct_broadcast _ -> ()

(* The acting-leader role moved to [na] (the engine's migration).
   GeoBFT flow control: Recv_notes addressed to the dead leader are
   gone for good (no global retransmission in direct broadcast), so
   pending note rounds can never complete. Reset the proposer window
   rather than let stranded slots throttle the group forever —
   commitment itself was already stamped at send time. *)
let on_leader_migrated t (l : leader) (na : Topology.addr) =
  match l.l_glob with
  | Per_group_raft _ | Single_raft _ -> ()
  | Direct_broadcast { awaiting } ->
      Entry_tbl.reset awaiting;
      l.l_in_flight <- 0;
      (* Remote content that reached this node (via the group's LAN
         forwarding) while it was a mere follower never saw the leader's
         receive reaction: the round was never marked and the proposer
         was never credited, wedging the round barrier here and the
         proposer's window there. Run the reaction now for everything
         unprocessed — marking is idempotent and a duplicate Recv_note
         finds its group already cleared. Remote content is visited in
         ascending (group, seq) order. *)
      Array.iteri
        (fun g seqs ->
          if g <> l.l_gid then
            List.iter
              (fun seq ->
                let eid = { Types.gid = g; seq } in
                if not (Ordering.round_ready l eid) then credit_content t l eid)
              (Bitset.elements seqs))
        (node_of t na).n_content

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

(* Group [gid]'s leader endpoints of [n_inst] Raft instances, built
   inside [Engine.create]: the callbacks reach the context, the leader
   and this state through their lazies, forced only once messages
   flow. *)
let install t_lazy ~ng ~gid ~n_inst =
  let rec state =
    lazy
      {
        rafts =
          Array.init n_inst (fun inst ->
              Raft.create ~initial_leader:inst ~ng ~me:gid
                {
                  Raft.send =
                    (fun dst_g rmsg ->
                      let t = Lazy.force t_lazy in
                      send ~bulk:false t ~src:(leader_addr t gid)
                        ~dst:(leader_addr t dst_g) ~bytes:(raft_msg_bytes t rmsg)
                        (Raft_m { inst; rmsg }));
                  on_deliver =
                    (fun ~index:_ p ->
                      let t = Lazy.force t_lazy in
                      on_raft_deliver t t.leaders.(gid) (Lazy.force state) p);
                  on_commit =
                    (fun ~index p ->
                      let t = Lazy.force t_lazy and r = Lazy.force state in
                      (* Indices at or below the skip mark are history
                         this leader already received via
                         reconfiguration state transfer: the raft
                         backfill replays them, but they must not
                         re-execute. *)
                      if index > r.skip_commits_below.(inst) then
                        on_raft_commit t t.leaders.(gid) r inst p);
                  on_role =
                    (fun role ~term:_ ->
                      let t = Lazy.force t_lazy in
                      on_raft_role t t.leaders.(gid) (Lazy.force state) inst role);
                  ack_guard =
                    (fun ~index p k ->
                      let t = Lazy.force t_lazy in
                      ack_guard t t.leaders.(gid) (Lazy.force state) inst ~index p k);
                });
        last_heard = Array.make n_inst 0.0;
        skip_commits_below = Array.make n_inst 0;
        stuck = Inttbl.create 8;
        accept = Inttbl.create 32;
        ts =
          Array.init n_inst (fun _ ->
              Array.init ng (fun _ ->
                  { ts_seen = Bitset.create (); ts_committed = Bitset.create () }));
        clk_of = Array.make n_inst 0;
      }
  in
  Lazy.force state

(* Heartbeats + crash detection (only meaningful with global Raft).
   Called once from [Engine.start]. *)
let start_heartbeats t =
  let period = t.cfg.Config.election_timeout_s /. 2.0 in
  Array.iter
    (fun l ->
      match l.l_glob with
      | Direct_broadcast _ -> ()
      | Per_group_raft r | Single_raft { raft = r; _ } ->
          (* Each leader's heartbeat chain is accounted to its group's
             shard. *)
          let lsim = sim_of t l.l_gid in
          Array.fill r.last_heard 0 (Array.length r.last_heard) 0.0;
          let rec tick () =
            Sim.after lsim period (fun () ->
                (* A dark leader (provisioned but not yet a member, or
                   already recovered for its catch-up transfer) neither
                   probes nor campaigns: a stale-log election would only
                   inflate terms and depose working leaders. Its
                   [last_heard] is refreshed at the cutover clone. *)
                if alive t l.l_addr && member_now t l.l_gid then begin
                  Array.iteri
                    (fun inst raft ->
                      if Raft.role raft = Raft.Leader then begin
                        (* Anti-entropy probe: heartbeat + catch-up for
                           lagging or recovered followers. *)
                        Raft.heartbeat raft;
                        unwedge_check t l r inst raft
                      end
                      else begin
                        let stagger =
                          float_of_int ((l.l_gid - inst + t.ng) mod t.ng)
                        in
                        let deadline =
                          t.cfg.Config.election_timeout_s
                          *. (1.0 +. (0.5 *. stagger))
                        in
                        if now t -. r.last_heard.(inst) > deadline then begin
                          r.last_heard.(inst) <- now t;
                          Raft.start_election raft
                        end
                      end)
                    r.rafts
                end;
                tick ())
          in
          tick ())
    t.leaders

let observe (t : Node_ctx.t) sampler =
  Array.iter
    (fun l ->
      match l.l_glob with
      | Direct_broadcast _ -> ()
      | Per_group_raft r | Single_raft { raft = r; _ } ->
          Array.iteri
            (fun inst raft ->
              let labels =
                obs_group_labels l @ [ ("inst", string_of_int inst) ]
              in
              Massbft_obs.Sampler.add_probe sampler ~name:"massbft_raft_is_leader"
                ~help:"1 when this group's leader leads the Raft instance"
                ~labels
                (fun ~now:_ ~dt:_ ->
                  match Raft.role raft with Raft.Leader -> 1.0 | _ -> 0.0);
              Massbft_obs.Sampler.add_probe sampler
                ~name:"massbft_raft_commit_index"
                ~help:"Commit index of the instance as seen by this leader"
                ~labels
                (fun ~now:_ ~dt:_ -> float_of_int (Raft.commit_index raft)))
            r.rafts)
    t.leaders
