(* Batching stage: client load generation, the 20 ms batch timer and
   the pipeline window. A leader forms a batch when its timer has
   fired ([l_batch_pending]), fewer than [pipeline] own entries are in
   flight, and the leader's ordering state admits the next sequence
   number ([admits]). *)

open Node_ctx
module Sha256 = Massbft_crypto.Sha256

let form_batch t (l : leader) =
  let seq = l.l_next_seq in
  l.l_next_seq <- seq + 1;
  l.l_in_flight <- l.l_in_flight + 1;
  let rec take acc n lst =
    if n = 0 then (List.rev acc, lst)
    else
      match lst with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (x :: acc) (n - 1) rest
  in
  (* A pending reconfiguration command takes the batch slot alone: the
     epoch-boundary entry carries zero transactions so its position in
     the total order is the clean config cut. Otherwise, conflicted
     transactions re-enter through Aria's deterministic fallback lane:
     they execute serially next time and always commit, bounding
     retries to one round. *)
  let conf =
    if Queue.is_empty l.l_pending_conf then None
    else Some (Queue.pop l.l_pending_conf)
  in
  let retried, fresh =
    match conf with
    | Some _ -> ([], [])
    | None ->
        let retried, rest = take [] t.cfg.Config.max_batch l.l_retry in
        l.l_retry <- rest;
        let fresh =
          List.init
            (t.cfg.Config.max_batch - List.length retried)
            (fun _ -> W.next l.l_gen)
        in
        (retried, fresh)
  in
  let eid = { Types.gid = l.l_gid; seq } in
  let digest = Sha256.digest ("entry:" ^ Types.entry_id_to_string eid) in
  let txn_bytes l0 =
    List.fold_left (fun acc (x : Txn.t) -> acc + x.Txn.wire_size) 0 l0
  in
  let size = batch_bytes ~txn_bytes:(txn_bytes fresh + txn_bytes retried) in
  let e =
    {
      eid;
      digest;
      size;
      conf;
      txns = fresh;
      fb_txns = retried;
      txn_count = List.length fresh + List.length retried;
      created_at = now t;
      decided_at = 0.0;
      committed_at = 0.0;
      ordered_at = 0.0;
      outcome = None;
      executed_by = 0;
    }
  in
  Entry_tbl.replace t.entries eid e;
  trace_entry t eid "batch_formed" ~node:0
    ~args:[ ("txns", Trace.Int e.txn_count); ("bytes", Trace.Int size) ];
  content_event t (node_of t l.l_addr) eid;
  (* The leader verifies the batch's client signatures, then starts
     local PBFT consensus. *)
  let verify_cost =
    float_of_int e.txn_count *. t.cfg.Config.cost.Config.sig_verify_s
  in
  charge_cpu_parallel t l.l_addr verify_cost (fun () ->
      if alive t l.l_addr then
        (* The acting leader may have crashed (or a view change started)
           between forming the batch and the CPU finishing: proposing
           would raise. A not-yet-proposed entry is re-proposed by the
           engine's leader-migration sweep instead. *)
        match (node_of t l.l_addr).n_pbft with
        | Some pbft
          when Pbft.is_leader pbft
               && (not (Pbft.in_view_change pbft))
               && not (Pbft.proposed pbft ~seq) ->
            Pbft.propose pbft ~seq ~digest
        | Some _ | None -> ())

(* May the group propose sequence number [seq] yet? *)
let admits t (l : leader) seq =
  match l.l_ord with
  | Sync_rounds rs ->
      (* Round-based protocols propose exactly one entry per round: a
         group may run at most a pipeline's worth of rounds ahead of the
         slowest group (otherwise Figure 2's backlog grows without
         bound). *)
      seq - rs.next_round < t.cfg.Config.pipeline
  | Epoch_rounds rs ->
      (* A proposal in epoch e requires every round of the preceding
         epochs (rounds 1 .. e*k) to have executed locally — the
         epoch-boundary synchronization that gives ISS its latency
         profile. *)
      let k = Config.epoch_rounds in
      let epoch = (seq - 1) / k in
      epoch = 0 || rs.next_round > epoch * k
  | Async_vts _ | Global_log -> true

let try_batch t (l : leader) =
  if
    t.started
    && member_now t l.l_gid
    && alive t l.l_addr
    && l.l_batch_pending
    && l.l_in_flight < t.cfg.Config.pipeline
    && admits t l l.l_next_seq
  then begin
    l.l_batch_pending <- false;
    form_batch t l
  end

(* Arm the per-leader batch timers (called once from Engine.start).
   Each leader's timer chain is scheduled through its group's shard
   handle. *)
let start t =
  Array.iter
    (fun l ->
      let lsim = sim_of t l.l_gid in
      let rec tick () =
        Sim.after lsim Config.batch_timeout_s (fun () ->
            if alive t l.l_addr then begin
              l.l_batch_pending <- true;
              try_batch t l
            end;
            tick ())
      in
      l.l_batch_pending <- true;
      try_batch t l;
      tick ())
    t.leaders

let observe (t : Node_ctx.t) sampler =
  let open Node_ctx in
  Array.iter
    (fun l ->
      let labels = obs_group_labels l in
      Massbft_obs.Sampler.add_probe sampler ~name:"massbft_batcher_in_flight"
        ~help:
          "Batches admitted into the pipeline window and not yet globally \
           committed"
        ~labels
        (fun ~now:_ ~dt:_ -> float_of_int l.l_in_flight);
      Massbft_obs.Sampler.add_probe sampler ~name:"massbft_batcher_retry_queue"
        ~help:"Conflict-aborted transactions awaiting rebatching" ~labels
        (fun ~now:_ ~dt:_ -> float_of_int (List.length l.l_retry)))
    t.leaders
