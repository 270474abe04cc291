(* Execution stage: the per-leader ordered execution queue, Aria batch
   execution + ledger append, and per-entry metrics/trace recording.
   Entries enter through [enqueue] (from the ordering or global
   stages), which places them in the leader's order and pumps; the
   pump executes them in queue order, gated on holding the entry's
   content. *)

open Node_ctx
module Stats = Massbft_util.Stats

(* The entry's lifecycle as (summary, name, begin, duration) spans.
   Both the Metrics phase summaries (Figure 11) and the exported trace
   derive from this one list, so figure output and a trace of the same
   run always agree. *)
let phase_spans t e ~tnow =
  let m = t.metrics in
  let batch_wait = Config.batch_timeout_s /. 2.0 in
  let coding = Replication.coding_s t e in
  let always =
    [
      (m.Metrics.phase_batch_s, "batch", e.created_at -. batch_wait, batch_wait);
      ( m.Metrics.phase_local_s,
        "local",
        e.created_at,
        e.decided_at -. e.created_at );
      (m.Metrics.phase_coding_s, "coding", e.decided_at, coding);
    ]
  in
  let tail =
    if e.committed_at > 0.0 then
      ( m.Metrics.phase_global_s,
        "global",
        e.decided_at,
        e.committed_at -. e.decided_at )
      ::
      (if e.ordered_at > 0.0 then
         [
           ( m.Metrics.phase_order_s,
             "order",
             e.committed_at,
             e.ordered_at -. e.committed_at );
           (m.Metrics.phase_exec_s, "exec", e.ordered_at, tnow -. e.ordered_at);
         ]
       else [])
    else []
  in
  always @ tail

let record_metrics t e outcome =
  let m = t.metrics in
  let tnow = now t in
  let n_committed = List.length outcome.Aria.committed in
  Stats.Counter.add m.Metrics.committed_txns n_committed;
  (let per_group =
     match Hashtbl.find_opt m.Metrics.committed_per_group e.eid.Types.gid with
     | Some c -> c
     | None ->
         let c = Stats.Counter.create () in
         Hashtbl.replace m.Metrics.committed_per_group e.eid.Types.gid c;
         c
   in
   Stats.Counter.add per_group n_committed);
  Stats.Counter.add m.Metrics.conflicted_txns
    (List.length outcome.Aria.conflicted);
  Stats.Counter.add m.Metrics.logic_aborted_txns
    (List.length outcome.Aria.logic_aborted);
  Stats.Counter.add m.Metrics.entries_executed 1;
  Stats.Timeseries.add m.Metrics.txn_rate ~time:tnow (float_of_int n_committed);
  let batch_wait = Config.batch_timeout_s /. 2.0 in
  let latency = tnow -. e.created_at +. batch_wait in
  Stats.Summary.add m.Metrics.latency_s latency;
  Stats.Timeseries.add m.Metrics.latency_ts ~time:tnow latency;
  (* Phase breakdown: the span list is the single source; each span's
     duration feeds its summary and, when tracing, the span itself is
     exported with the entry's correlation id. *)
  List.iter
    (fun (summary, name, b, dur) ->
      Stats.Summary.add summary dur;
      if Trace.enabled t.trace then begin
        (* Under faults an entry can be ordered before its proposing
           leader stamps the commit, so the "order" phase can come out
           negative; the summary keeps the value, the span is drawn
           empty. *)
        let b = Float.max 0.0 b in
        Trace.span t.trace ~cat:"entry.phase" ~gid:e.eid.Types.gid ~node:0
          ~eid:(e.eid.Types.gid, e.eid.Types.seq)
          ~b ~e:(b +. Float.max 0.0 dur) name
      end)
    (phase_spans t e ~tnow)

let do_execute t (l : leader) e =
  (* Execute once: the first leader to reach the entry runs the Aria
     pass against the deployment's one store and memoizes the outcome;
     every later leader takes the memo and touches no data. The writes
     are already applied, so the memo drops them: an entry stays until
     every leader has run it, through a whole group outage under
     faults. *)
  let outcome =
    match e.outcome with
    | Some o -> o
    | None ->
        let o =
          Aria.execute_batch ~reorder:t.cfg.Config.reorder ~fallback:e.fb_txns
            t.shared_store e.txns
        in
        e.outcome <- Some (Aria.without_writes o);
        o
  in
  ignore
    (Ledger.append l.l_ledger ~gid:e.eid.Types.gid ~seq:e.eid.Types.seq
       ~txn_count:e.txn_count ~payload_digest:e.digest);
  Entry_tbl.remove l.l_committed_unexec e.eid;
  (* Once every leader has executed the entry its content (transaction
     closures, memoized outcome) is dead weight; keep the metadata. A
     dark or removed group never executes, so under a membership change
     an entry a joiner may still replay is never released. *)
  e.exec_count <- e.exec_count + 1;
  if e.exec_count >= t.ng then begin
    e.txns <- [];
    e.fb_txns <- [];
    e.outcome <- None
  end;
  if e.eid.Types.gid = l.l_gid then begin
    trace_entry t e.eid "executed" ~node:0
      ~args:[ ("committed", Trace.Int (List.length outcome.Aria.committed)) ];
    (* The proposer re-queues its conflict-aborted transactions. *)
    l.l_retry <- l.l_retry @ outcome.Aria.conflicted;
    if measuring t e.created_at then record_metrics t e outcome
  end;
  (* Epoch boundary: executing a config entry is the agreed cut — the
     ledger block just appended is the on-chain record of the change,
     and the controller applies this group's side of the flip now. *)
  (match e.conf with
  | Some _ -> (
      match t.reconfig_apply with Some hook -> hook t l e | None -> ())
  | None -> ());
  Batcher.try_batch t l

let head_timer_pending (l : leader) eid =
  match l.l_head_timer with
  | Some pending -> Types.entry_id_equal pending eid
  | None -> false

let rec pump t (l : leader) =
  if (not l.l_exec_busy) && not (Queue.is_empty l.l_exec_q) then begin
    let eid = Queue.peek l.l_exec_q in
    let node = node_of t l.l_addr in
    if has_content node eid then begin
      ignore (Queue.pop l.l_exec_q);
      l.l_exec_busy <- true;
      let e = entry_of t eid in
      let cost =
        float_of_int e.txn_count *. t.cfg.Config.cost.Config.txn_exec_s
      in
      (* Every node of the group replays execution; followers' CPUs are
         charged fire-and-forget. *)
      List.iter
        (fun a ->
          if (not (is_acting_leader t a)) && alive t a then
            charge_cpu_parallel t a cost (fun () -> ()))
        (Topology.group_nodes t.topo l.l_gid);
      charge_cpu_parallel t l.l_addr cost (fun () ->
          do_execute t l e;
          l.l_exec_busy <- false;
          pump t l)
    end
    else if not (head_timer_pending l eid) then begin
      (* The head can only be repaired by a fetch after a crash gap;
         give the chunks one timeout to arrive on their own. One timer
         per head is enough: a later pump finding the same head missing
         would arm a copy that fires after it, and [want_fetch] on a
         wanted entry is a no-op. *)
      l.l_head_timer <- Some eid;
      Replication.fetch_after_timeout t l eid ~on_fire:(fun () ->
          if head_timer_pending l eid then l.l_head_timer <- None)
    end
  end

(* The entry's position in this leader's order is final: an epoch
   boundary switches membership here, before anything after it is
   ordered. A non-member drops the entry — a joiner receives the prefix
   by its cutover clone, a removed group is gone. *)
let place t (l : leader) eid =
  if member_now t l.l_gid then begin
    (match Entry_tbl.find_opt t.entries eid with
    | Some e -> (
        if eid.Types.gid = l.l_gid && e.ordered_at = 0.0 then begin
          e.ordered_at <- now t;
          trace_entry t eid "ordered" ~node:0
        end;
        match (e.conf, t.reconfig_order) with
        | Some _, Some hook -> hook t l e
        | _ -> ())
    | None -> ());
    Queue.push eid l.l_exec_q
  end

let enqueue t (l : leader) eid =
  place t l eid;
  pump t l

let observe (t : Node_ctx.t) sampler =
  Array.iter
    (fun l ->
      let labels = obs_group_labels l in
      Massbft_obs.Sampler.add_probe sampler
        ~name:"massbft_execution_queue_depth"
        ~help:"Finally-ordered entries queued behind the execution pump"
        ~labels
        (fun ~now:_ ~dt:_ -> float_of_int (Queue.length l.l_exec_q));
      Massbft_obs.Sampler.add_probe sampler ~name:"massbft_execution_busy"
        ~help:"1 while the pump has an Aria batch on the CPU" ~labels
        (fun ~now:_ ~dt:_ -> if l.l_exec_busy then 1.0 else 0.0);
      Massbft_obs.Sampler.add_probe sampler
        ~name:"massbft_execution_committed_unexec"
        ~help:"Globally committed entries not yet executed" ~labels
        (fun ~now:_ ~dt:_ ->
          float_of_int (Entry_tbl.length l.l_committed_unexec)))
    t.leaders
