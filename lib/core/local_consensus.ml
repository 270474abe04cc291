(* Local-consensus stage: the PBFT adapter. Wires one PBFT replica per
   node (the replicas run full three-phase PBFT), charges the batch
   signature-verification cost on Pre_prepare receipt, and turns decide
   certificates into the dissemination + global phase via the resolved
   strategies. The skip-prepare accept variant used for global-accept
   rounds is [accept_round] below; Global_consensus drives it. *)

open Node_ctx

let local_msg_bytes t m =
  match m with
  | Pbft.Pre_prepare { digest; _ } -> (
      match entry_by_digest t digest with
      | Some e -> e.size + Types.header_bytes + Types.signature_bytes
      | None -> Types.vote_bytes)
  | Pbft.Prepare _ | Pbft.Commit _ -> Types.vote_bytes
  | Pbft.View_change _ | Pbft.New_view _ -> 4 * Types.vote_bytes

let on_decide t (node : node) (cert : Pbft.certificate) =
  match entry_by_digest t cert.Pbft.cert_digest with
  | None -> ()
  | Some e ->
      let addr = node.n_addr in
      content_event t node e.eid;
      if is_acting_leader t addr && e.eid.Types.gid = addr.Topology.g then
        if e.decided_at = 0.0 then begin
          e.decided_at <- now t;
          trace_entry t e.eid "decided" ~node:addr.Topology.n
        end;
      (* Per-node dissemination (chunks / bijective copies). *)
      t.strat.repl.r_on_decide t node e;
      if is_acting_leader t addr && addr.Topology.g = e.eid.Types.gid then
        t.strat.glob.g_start t t.leaders.(addr.Topology.g) e

let handle t (node : node) ~(src : Topology.addr) pm =
  match node.n_pbft with
  | None -> ()
  | Some pbft -> (
      match pm with
      | Pbft.Pre_prepare { digest; _ } ->
          (* Receiving the batch: verify every client signature before
             voting (the paper's dominant local cost). *)
          let cost =
            match entry_by_digest t digest with
            | Some e ->
                float_of_int e.txn_count *. t.cfg.Config.cost.Config.sig_verify_s
            | None -> 0.0
          in
          charge_cpu_parallel t node.n_addr cost (fun () ->
              if alive t node.n_addr then Pbft.handle pbft ~from:src.Topology.n pm)
      | _ -> Pbft.handle pbft ~from:src.Topology.n pm)

(* ------------------------------------------------------------------ *)
(* Skip-prepare accept rounds                                          *)
(* ------------------------------------------------------------------ *)

(* The accept decision on a remote entry skips PBFT's prepare phase:
   the leader broadcasts the request and collects a quorum of direct
   votes (the skip-prepare variant of §V-B). Global_consensus drives
   this from its content-gated ack guards. *)

let accept_round t (l : leader) ~inst ~index k =
  let quorum = Intmath.pbft_quorum (active_size t l.l_gid) in
  if quorum <= 1 then k ()
  else begin
    (* Votes are a set of voter node ids (the leader's own vote counts),
       so duplicated deliveries cannot inflate the tally. *)
    let a_votes = Bitset.create () in
    Bitset.add a_votes l.l_addr.Topology.n;
    Inttbl.replace l.l_accept (round_key t ~inst ~index) { a_votes; a_release = k };
    broadcast_group ~bulk:false t ~src:l.l_addr ~bytes:Types.vote_bytes
      (Accept_req { inst; index })
  end

let handle_accept_req t ~(src : Topology.addr) ~(dst : Topology.addr) ~inst ~index =
  (* Follower's vote in the skip-prepare accept round. *)
  send ~bulk:false t ~src:dst ~dst:src ~bytes:Types.vote_bytes
    (Accept_vote { inst; index })

let handle_accept_vote t ~(src : Topology.addr) ~(dst : Topology.addr) ~inst ~index =
  if is_acting_leader t dst then begin
    let l = t.leaders.(dst.Topology.g) in
    let key = round_key t ~inst ~index in
    match Inttbl.find_opt l.l_accept key with
    | None -> ()
    | Some r ->
        Bitset.add r.a_votes src.Topology.n;
        let quorum = Intmath.pbft_quorum (active_size t dst.Topology.g) in
        if Bitset.cardinal r.a_votes >= quorum then begin
          Inttbl.remove l.l_accept key;
          r.a_release ()
        end
  end

let handle_accept_note t ~(dst : Topology.addr) eid =
  if is_acting_leader t dst then begin
    let l = t.leaders.(dst.Topology.g) in
    let notes =
      match Entry_tbl.find_opt l.l_accept_notes eid with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Entry_tbl.replace l.l_accept_notes eid r;
          r
    in
    incr notes;
    (* f_g + 1 groups holding the entry imply it is replicated; the
       proposer counts implicitly, so f_g accept notes suffice for a
       slow receiver to stamp the entry without holding it (§V-C). *)
    if !notes >= max 1 (fg t) then Ordering.assign_ts t l eid
  end

(* Create the per-node PBFT replicas. Called once from [Engine.create]. *)
let install t =
  Array.iter
    (fun group ->
      Array.iter
        (fun node ->
          let g = node.n_addr.Topology.g in
          let n = Topology.group_size t.topo g in
          let pbft =
            Pbft.create
              { Pbft.n; me = node.n_addr.Topology.n; skip_prepare = false }
              {
                Pbft.send =
                  (fun dst_n pm ->
                    let bulk =
                      match pm with Pbft.Pre_prepare _ -> true | _ -> false
                    in
                    send ~bulk t ~src:node.n_addr
                      ~dst:{ Topology.g; n = dst_n }
                      ~bytes:(local_msg_bytes t pm) (Local pm));
                decide = (fun cert -> on_decide t node cert);
              }
          in
          node.n_pbft <- Some pbft)
        group)
    t.nodes

let observe (t : Node_ctx.t) sampler =
  Array.iter
    (fun group ->
      Array.iter
        (fun node ->
          match node.n_pbft with
          | None -> ()
          | Some p ->
              let labels = obs_node_labels node in
              Massbft_obs.Sampler.add_probe sampler
                ~name:"massbft_pbft_is_leader"
                ~help:"1 when this replica leads its group's PBFT view"
                ~labels
                (fun ~now:_ ~dt:_ -> if Pbft.is_leader p then 1.0 else 0.0);
              Massbft_obs.Sampler.add_probe sampler ~name:"massbft_pbft_view"
                ~help:"Current PBFT view number" ~labels
                (fun ~now:_ ~dt:_ -> float_of_int (Pbft.view p)))
        group)
    t.nodes
