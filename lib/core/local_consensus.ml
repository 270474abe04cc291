(* Local-consensus stage: the PBFT adapter. Wires one PBFT replica per
   node (the replicas run full three-phase PBFT), charges the batch
   signature-verification cost on Pre_prepare receipt, and turns decide
   certificates into dissemination (Replication) and the global phase
   (Global_consensus). The skip-prepare accept rounds of the global
   phase live in Global_consensus, their only caller. *)

open Node_ctx

(* The entry a PBFT message of group [g] names: the group's entry at
   [seq], if [digest] is its digest. A forged digest (equivocation)
   names nothing. *)
let named_entry t g ~seq digest =
  match Entry_tbl.find_opt t.entries { Types.gid = g; seq } with
  | Some e when String.equal e.digest digest -> Some e
  | Some _ | None -> None

let local_msg_bytes t g m =
  match m with
  | Pbft.Pre_prepare { seq; digest; _ } -> (
      match named_entry t g ~seq digest with
      | Some e -> e.size + Types.header_bytes + Types.signature_bytes
      | None -> Types.vote_bytes)
  | Pbft.Prepare _ | Pbft.Commit _ -> Types.vote_bytes
  | Pbft.View_change _ | Pbft.New_view _ -> 4 * Types.vote_bytes

let on_decide t (node : node) (cert : Pbft.certificate) =
  match
    named_entry t node.n_addr.Topology.g ~seq:cert.Pbft.cert_seq
      cert.Pbft.cert_digest
  with
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
      Replication.on_decide t node e;
      if is_acting_leader t addr && addr.Topology.g = e.eid.Types.gid then
        Global_consensus.start t t.leaders.(addr.Topology.g) e

let handle t (node : node) ~(src : Topology.addr) pm =
  match node.n_pbft with
  | None -> ()
  | Some pbft -> (
      match pm with
      | Pbft.Pre_prepare { seq; digest; _ } ->
          (* Receiving the batch: verify every client signature before
             voting (the paper's dominant local cost). *)
          let cost =
            match named_entry t node.n_addr.Topology.g ~seq digest with
            | Some e ->
                float_of_int e.txn_count *. t.cfg.Config.cost.Config.sig_verify_s
            | None -> 0.0
          in
          charge_cpu_parallel t node.n_addr cost (fun () ->
              if alive t node.n_addr then Pbft.handle pbft ~from:src.Topology.n pm)
      | _ -> Pbft.handle pbft ~from:src.Topology.n pm)

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
                      ~bytes:(local_msg_bytes t g pm) (Local pm));
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
