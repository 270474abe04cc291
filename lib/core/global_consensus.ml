(* Global-consensus stage: the Raft adapter with content-gated acks
   (Lemma V.1), plus heartbeats/elections and log unwedging. The VTS
   stamping lane it drives lives in Ordering; the skip-prepare accept
   rounds it gates on live in Local_consensus. Three strategies
   (Table II):

   - [per_group_raft]: one Raft instance per group, led by that group's
     leader; followers of an instance are the other groups' leaders
     (MassBFT / Baseline / ISS / BR / EBR).
   - [single_raft]: Steward — one global Raft at group 0; remote
     entries are forwarded to G0 as full copies and proposed there.
   - [direct_broadcast]: GeoBFT — no global consensus; content arrival
     at every group is the commitment event, credited back to the
     proposer with Recv_notes. *)

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
(* Raft callbacks                                                      *)
(* ------------------------------------------------------------------ *)

let on_raft_deliver t (l : leader) _inst payload =
  match payload with
  | Noop -> ()
  | Entry_meta { eid } ->
      (* Overlapped assignment (Fig. 7b): stamp on the propose message.
         The serial variant (Fig. 7a) waits for the entry's own commit
         (handled in on_raft_commit), costing one extra RTT. *)
      if t.cfg.Config.overlapped_vts then Ordering.assign_ts t l eid
  | Ts _ -> ()

(* Content-gated acks: a follower acknowledges an Entry_meta only after
   holding the entry's content and passing a local accept round, and a
   Ts only for an entry it holds (Lemma V.1). *)
let ack_guard t (l : leader) inst ~index payload release =
  match payload with
  | Noop -> release ()
  | Entry_meta { eid } ->
      if not (has_content (node_of t l.l_addr) eid) then
        ignore
          (Sim.after t.sim t.cfg.Config.fetch_timeout_s (fun () ->
               if
                 alive t l.l_addr
                 && not (has_content (node_of t l.l_addr) eid)
               then Replication.want_fetch t l eid));
      when_content t l eid (fun () ->
          (* Verify the sender group's certificate, then reach local
             consensus on the accept decision (skip-prepare PBFT). *)
          let cert_cost =
            float_of_int (Intmath.pbft_quorum (active_size t eid.Types.gid))
            *. t.cfg.Config.cost.Config.sig_verify_s
          in
          charge_cpu t l.l_addr cert_cost (fun () ->
              if alive t l.l_addr then
                Local_consensus.accept_round t l
                  ~tag:(Printf.sprintf "acc|%d|%d" inst index)
                  (fun () ->
                    release ();
                    (* Slow-receiver support (§V-C): advertise the
                       accept to every group directly. Only the
                       VTS-ordered system (MassBFT) runs this lane —
                       round-based systems synchronize through their
                       rounds instead. *)
                    if t.strat.ord.o_vts then
                      for j = 0 to t.ng - 1 do
                        if j <> l.l_gid && member_now t j then
                          send t ~src:l.l_addr ~dst:(leader_addr t j)
                            ~bytes:Types.vote_bytes (Accept_note { eid })
                      done)))
  | Ts { eid; _ } ->
      if not (has_content (node_of t l.l_addr) eid) then
        ignore
          (Sim.after t.sim t.cfg.Config.fetch_timeout_s (fun () ->
               if
                 alive t l.l_addr
                 && not (has_content (node_of t l.l_addr) eid)
               then Replication.want_fetch t l eid));
      when_content t l eid release

let on_raft_commit t (l : leader) inst payload =
  match payload with
  | Noop -> ()
  | Entry_meta { eid } ->
      let e = entry_of t eid in
      l.l_clk_of.(inst) <- eid.Types.seq;
      Entry_tbl.replace l.l_committed_unexec eid ();
      if not t.cfg.Config.overlapped_vts then Ordering.assign_ts t l eid;
      t.strat.ord.o_on_commit t l eid;
      if eid.Types.gid = l.l_gid then begin
        l.l_clk <- max l.l_clk eid.Types.seq;
        (* A recovered leader may re-propose an in-flight entry that in
           fact committed twice; account it once. *)
        if e.committed_at = 0.0 then begin
          e.committed_at <- now t;
          trace_entry t e.eid "committed" ~node:0;
          l.l_in_flight <- l.l_in_flight - 1;
          Batcher.try_batch t l
        end
      end;
      Ordering.stamp_led_instances l eid
  | Ts { eid; ts } -> Ordering.on_ts_commit l inst ~eid ~ts

let on_raft_role t (l : leader) inst role =
  if role = Raft.Leader then begin
    if inst = l.l_gid then
      (* Transfer-back after recovery: in-flight entries whose proposals
         died with the old term are re-proposed in sequence order. *)
      for seq = 1 to l.l_next_seq - 1 do
        let eid = { Types.gid = l.l_gid; seq } in
        match Entry_tbl.find_opt t.entries eid with
        | Some e when e.committed_at = 0.0 ->
            ignore (Raft.propose l.l_rafts.(inst) (Entry_meta { eid }))
        | _ -> ()
      done;
    Ordering.stamp_committed_unexec l inst
  end

(* A taken-over instance can inherit the dead leader's in-flight
   entries whose chunk dissemination never completed: no live group
   holds their content, so the content-gated accepts (Lemma V.1) can
   never arrive and the whole log wedges behind them. Such entries can
   never have committed anywhere (commitment needs a majority of
   content-holding groups), so after fetching from every group fails
   they are safely replaced with no-ops. *)
let unwedge_check t (l : leader) inst raft =
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
        let key = Printf.sprintf "%d|%d" inst idx in
        let ticks =
          match Hashtbl.find_opt l.l_stuck key with
          | Some r -> r
          | None ->
              let r = ref 0 in
              Hashtbl.replace l.l_stuck key r;
              r
        in
        incr ticks;
        if !ticks = 1 then Replication.want_fetch t l eid
        else if !ticks >= 4 then begin
          Hashtbl.remove l.l_stuck key;
          trace_entry t eid "unwedge_noop" ~gid:l.l_gid ~node:0
            ~args:[ ("inst", Trace.Int inst); ("index", Trace.Int idx) ];
          Raft.replace_uncommitted raft ~index:idx Noop
        end
  end

(* ------------------------------------------------------------------ *)
(* Steward's single-log proposal path                                  *)
(* ------------------------------------------------------------------ *)

let steward_propose t (l : leader) e =
  if not (Entry_tbl.mem l.l_steward_proposed e.eid) then begin
    Entry_tbl.replace l.l_steward_proposed e.eid ();
    Replication.send_oneway_copies t l e ~skip:[ e.eid.Types.gid ];
    if Raft.role l.l_rafts.(0) = Raft.Leader then
      ignore (Raft.propose l.l_rafts.(0) (Entry_meta { eid = e.eid }))
  end

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)
(* ------------------------------------------------------------------ *)

let handle_raft_m t ~(src : Topology.addr) ~(dst : Topology.addr) ~inst rmsg =
  (* A leader outside the current membership (a joining group still in
     state transfer, a removed group draining away) must not feed its
     Raft logs: commits its instances processed before the cutover clone
     would be consumed exactly once and then wiped with the cloned
     state, silently losing them. After the epoch flip the anti-entropy
     probes backfill everything, gated by [l_skip_commits_below]. *)
  if
    is_acting_leader t dst
    && ((not t.reconfig_on) || member_now t dst.Topology.g)
  then begin
    let l = t.leaders.(dst.Topology.g) in
    if inst < Array.length l.l_last_heard then
      l.l_last_heard.(inst) <- now t;
    if inst < Array.length l.l_rafts then
      Raft.handle l.l_rafts.(inst) ~from:src.Topology.g rmsg
  end

(* Recv_notes are only ever emitted by the direct-broadcast strategy,
   so no configuration guard is needed here. *)
let handle_recv_note t ~(dst : Topology.addr) eid =
  if is_acting_leader t dst then begin
    let l = t.leaders.(dst.Topology.g) in
    if eid.Types.gid = l.l_gid then begin
      let notes =
        match Entry_tbl.find_opt l.l_recv_notes eid with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Entry_tbl.replace l.l_recv_notes eid r;
            r
      in
      incr notes;
      (* Exactly-once on equality: duplicated deliveries (an injectable
         fault) push the count past the threshold but can never make it
         *equal* again, so the pipeline slot is released once. The
         counter is kept (not removed) for the same reason. *)
      if !notes = t.ng - 1 then begin
        let e = entry_of t eid in
        if e.committed_at = 0.0 then begin
          e.committed_at <- now t;
          trace_entry t eid "committed" ~node:0
        end;
        (* The floor only matters after a leader migration reset the
           window (a straggler round completing against the new leader
           must not inflate it); fault-free runs never hit it. *)
        if l.l_in_flight > 0 then l.l_in_flight <- l.l_in_flight - 1;
        Batcher.try_batch t l
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Strategy values                                                     *)
(* ------------------------------------------------------------------ *)

let per_group_raft =
  {
    g_instances = (fun ng -> ng);
    g_start =
      (fun t l e ->
        if t.strat.repl.r_oneway then
          Replication.send_oneway_copies t l e ~skip:[];
        if Raft.role l.l_rafts.(l.l_gid) = Raft.Leader then
          ignore (Raft.propose l.l_rafts.(l.l_gid) (Entry_meta { eid = e.eid })));
    g_on_content = (fun _ _ _ -> ());
    g_on_copy = (fun _ _ _ -> ());
  }

let direct_broadcast =
  {
    g_instances = (fun _ -> 0);
    g_start =
      (fun t l e ->
        Replication.send_oneway_copies t l e ~skip:[];
        (* Under a reconfiguration some groups are dark: they receive no
           copy, yet the commit threshold stays [ng - 1] notes. Credit
           the missing notes up front so the exactly-once equality in
           [handle_recv_note] still fires — the counter walks through
           every value by +1 increments, so pre-crediting never skips
           the threshold. Reconfig-free runs never enter this branch. *)
        (if t.reconfig_on then begin
           let missing = ref 0 in
           for j = 0 to t.ng - 1 do
             if j <> l.l_gid && not (member_now t j) then incr missing
           done;
           if !missing > 0 then begin
             let notes =
               match Entry_tbl.find_opt l.l_recv_notes e.eid with
               | Some r -> r
               | None ->
                   let r = ref 0 in
                   Entry_tbl.replace l.l_recv_notes e.eid r;
                   r
             in
             notes := !notes + !missing
           end
         end);
        (* No global consensus: the entry is ready for ordering here. *)
        Ordering.mark_round_ready t l e.eid;
        if e.committed_at = 0.0 then begin
          e.committed_at <- now t;
          trace_entry t e.eid "committed" ~node:0
        end);
    g_on_content =
      (fun t l eid ->
        (* Content arrival is the commitment event: credit the proposer
           and mark the entry's round. *)
        if eid.Types.gid <> l.l_gid then
          send t ~src:l.l_addr
            ~dst:(leader_addr t eid.Types.gid)
            ~bytes:Types.vote_bytes (Recv_note { eid });
        Ordering.mark_round_ready t l eid);
    g_on_copy = (fun _ _ _ -> ());
  }

let single_raft =
  {
    g_instances = (fun _ -> 1);
    g_start =
      (fun t l e ->
        if l.l_gid = 0 then steward_propose t l e
        else
          (* Forward the certified entry to the global leader group. *)
          send ~bulk:true t ~src:l.l_addr ~dst:(leader_addr t 0)
            ~bytes:(copy_bytes t e.eid) (Copy { eid = e.eid }));
    g_on_content = (fun _ _ _ -> ());
    g_on_copy =
      (fun t node eid ->
        if
          is_acting_leader t node.n_addr
          && node.n_addr.Topology.g = 0
          && eid.Types.gid <> 0
        then steward_propose t t.leaders.(0) (entry_of t eid));
  }

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

(* Create the per-leader Raft instances (and, for VTS ordering, the
   Orderer). Called once from [Engine.create]. *)
let install t ~n_inst =
  Array.iter
    (fun l ->
      l.l_rafts <-
        Array.init n_inst (fun inst ->
            Raft.create ~initial_leader:inst ~ng:t.ng ~me:l.l_gid
              {
                Raft.send =
                  (fun dst_g rmsg ->
                    send t ~src:l.l_addr ~dst:(leader_addr t dst_g)
                      ~bytes:(raft_msg_bytes t rmsg)
                      (Raft_m { inst; rmsg }));
                on_deliver = (fun ~index:_ p -> on_raft_deliver t l inst p);
                on_commit =
                  (fun ~index p ->
                    (* Indices at or below the skip mark are history this
                       leader already received via reconfiguration state
                       transfer: the raft backfill replays them, but they
                       must not re-execute. *)
                    if index > l.l_skip_commits_below.(inst) then
                      on_raft_commit t l inst p);
                on_role = (fun role ~term:_ -> on_raft_role t l inst role);
                ack_guard = (fun ~index p k -> ack_guard t l inst ~index p k);
              });
      if t.strat.ord.o_vts then
        l.l_orderer <-
          Some
            (Orderer.create ~ng:t.ng ~on_execute:(fun eid ->
                 Execution.enqueue t l eid)))
    t.leaders

(* Heartbeats + crash detection (only meaningful with global Raft).
   Called once from [Engine.start]. *)
let start_heartbeats t =
  if Array.length t.leaders.(0).l_rafts > 0 then begin
    let period = t.cfg.Config.election_timeout_s /. 2.0 in
    Array.iter
      (fun l ->
        (* Each leader's heartbeat chain is accounted to its group's
           shard. *)
        let lsim = sim_of t l.l_gid in
        Array.iteri (fun i _ -> l.l_last_heard.(i) <- 0.0) l.l_last_heard;
        let rec tick () =
          ignore
            (Sim.after lsim period (fun () ->
                 (* A dark leader (provisioned but not yet a member, or
                    already recovered for its catch-up transfer) neither
                    probes nor campaigns: a stale-log election would only
                    inflate terms and depose working leaders. Its
                    [l_last_heard] is refreshed at the cutover clone. *)
                 if
                   alive t l.l_addr
                   && ((not t.reconfig_on) || member_now t l.l_gid)
                 then begin
                   Array.iteri
                     (fun inst raft ->
                       if Raft.role raft = Raft.Leader then begin
                         (* Anti-entropy probe: heartbeat + catch-up for
                            lagging or recovered followers. *)
                         Raft.heartbeat raft;
                         unwedge_check t l inst raft
                       end
                       else begin
                         let stagger =
                           float_of_int ((l.l_gid - inst + t.ng) mod t.ng)
                         in
                         let deadline =
                           t.cfg.Config.election_timeout_s
                           *. (1.0 +. (0.5 *. stagger))
                         in
                         if now t -. l.l_last_heard.(inst) > deadline then begin
                           l.l_last_heard.(inst) <- now t;
                           Raft.start_election raft
                         end
                       end)
                     l.l_rafts
                 end;
                 tick ()))
        in
        tick ())
      t.leaders
  end

let observe (t : Node_ctx.t) sampler =
  Array.iter
    (fun l ->
      Array.iteri
        (fun inst r ->
          let labels =
            obs_group_labels l @ [ ("inst", string_of_int inst) ]
          in
          Massbft_obs.Sampler.add_probe sampler ~name:"massbft_raft_is_leader"
            ~help:"1 when this group's leader leads the Raft instance"
            ~labels
            (fun ~now:_ ~dt:_ ->
              match Raft.role r with Raft.Leader -> 1.0 | _ -> 0.0);
          Massbft_obs.Sampler.add_probe sampler
            ~name:"massbft_raft_commit_index"
            ~help:"Commit index of the instance as seen by this leader"
            ~labels
            (fun ~now:_ ~dt:_ -> float_of_int (Raft.commit_index r)))
        l.l_rafts)
    t.leaders
