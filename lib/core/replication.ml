(* Replication stage: how a locally-decided batch travels to the other
   groups. [on_decide] and [coding_s] match on the replication axis
   (Table II):

   - [Leader_oneway]: the proposing leader ships f_j + 1 full copies to
     each remote group during the global phase (GeoBFT's optimized
     cluster-sending; also Steward/ISS/Baseline). Nothing to do at
     decide time — Global_consensus invokes [send_oneway_copies].
   - [Bijective_full]: every node ships full copies per the partitioned
     bijective sending plan of §IV-A (f1 + f2 + 1 copies).
   - [Encoded_bijective]: every node erasure-codes the entry and ships
     its chunks per the Algorithm 1 transfer plan; receivers rebuild
     (MassBFT / EBR).

   This module also owns the receiver side: chunk rebuild through
   Rebuild's classifier (§IV-C's DoS defence), full-copy handling, and
   the post-crash content fetch pump. *)

open Node_ctx

(* The deployment's plans from group [src] to group [dst], for the
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

let plan_between t ~src ~dst = Lazy.force (plans t ~src ~dst).p_transfer

let chunk_bytes t ~src ~dst ~entry_len =
  Chunker.chunk_wire_size ~plan:(plan_between t ~src ~dst) ~entry_len

(* ------------------------------------------------------------------ *)
(* Senders                                                             *)
(* ------------------------------------------------------------------ *)

let send_chunks t (node : node) e =
  let g = node.n_addr.Topology.g in
  if node.n_addr.Topology.n = 0 then
    trace_entry t e.eid "chunks_sent" ~gid:g ~node:node.n_addr.Topology.n;
  let encode_cost =
    float_of_int e.size *. t.cfg.Config.cost.Config.encode_per_byte_s
  in
  charge_cpu t node.n_addr encode_cost (fun () ->
      (* Checked after the encode charge: a membership flip landing
         inside the charge window can retire this slot out of every
         active dissemination plan, and a retired slot must not ship
         chunks. *)
      if node.n_addr.Topology.n < active_size t g then
      for j = 0 to t.ng - 1 do
        if j <> g && member_now t j then begin
          let plan = plan_between t ~src:g ~dst:j in
          let bytes = chunk_bytes t ~src:g ~dst:j ~entry_len:e.size in
          List.iter
            (fun (c, r) ->
              send ~bulk:true t ~src:node.n_addr
                ~dst:{ Topology.g = j; n = r }
                ~bytes
                (Chunk { eid = e.eid; root_tag = e.digest; index = c }))
            (Transfer_plan.sends_of plan ~sender:node.n_addr.Topology.n)
        end
      done)

let send_bijective_copies t (node : node) e =
  (* The general approach of §IV-A: the (partitioned) bijective
     cluster-sending plan, f1 + f2 + 1 full copies for similar group
     sizes. *)
  let g = node.n_addr.Topology.g in
  if node.n_addr.Topology.n >= active_size t g then ()
  else
  for j = 0 to t.ng - 1 do
    if j <> g && member_now t j then begin
      let plan = Lazy.force (plans t ~src:g ~dst:j).p_bijective in
      List.iter
        (fun r ->
          send ~bulk:true t ~src:node.n_addr
            ~dst:{ Topology.g = j; n = r }
            ~bytes:(copy_bytes t e.eid) (Copy { eid = e.eid }))
        (Bijective_plan.sends_of plan ~sender:node.n_addr.Topology.n)
    end
  done

(* Per-node dissemination when local consensus decides a batch. *)
let on_decide t (node : node) e =
  match t.repl with
  | Config.Leader_oneway -> ()
  | Config.Bijective_full -> send_bijective_copies t node e
  | Config.Encoded_bijective -> send_chunks t node e

(* Coding CPU charged per entry, for the phase spans. *)
let coding_s t e =
  match t.repl with
  | Config.Leader_oneway | Config.Bijective_full -> 0.0
  | Config.Encoded_bijective ->
      float_of_int e.size
      *. (t.cfg.Config.cost.Config.encode_per_byte_s
         +. t.cfg.Config.cost.Config.decode_per_byte_s)

let send_oneway_copies t (l : leader) e ~skip =
  (* Leader one-way with the GeoBFT optimization: f_j + 1 receivers per
     remote group, who then forward over their LAN. *)
  for j = 0 to t.ng - 1 do
    if j <> l.l_gid && member_now t j && not (List.mem j skip) then
      for r = 0 to group_f t j do
        send ~bulk:true t ~src:l.l_addr
          ~dst:{ Topology.g = j; n = r }
          ~bytes:(copy_bytes t e.eid) (Copy { eid = e.eid })
      done
  done

(* The proposer's leader starts the global phase of its entry under
   per-group Raft: a [Leader_oneway] leader ships its copies now. *)
let on_global_start t (l : leader) e =
  match t.repl with
  | Config.Leader_oneway -> send_oneway_copies t l e ~skip:[]
  | Config.Bijective_full | Config.Encoded_bijective -> ()

(* ------------------------------------------------------------------ *)
(* Content repair: a pipelined fetch pump                              *)
(* ------------------------------------------------------------------ *)

(* Entries whose chunks were lost (a crash gap) are pulled as full
   copies, up to 8 in flight so a recovered group catches up at link
   speed; each issued request is retried against rotating groups while
   the content is missing, and the pump refills a slot the moment
   content lands. Missed content under normal operation never reaches
   the pump: the first fetch timer fires only after [fetch_timeout_s]. *)
let rec want_fetch t (l : leader) eid =
  if
    (not (has_content (node_of t l.l_addr) eid))
    && not (Entry_tbl.mem l.l_fetching eid)
  then begin
    Entry_tbl.replace l.l_fetching eid (ref 0);
    Queue.push eid l.l_fetch_q
  end;
  pump_fetch t l

and pump_fetch t (l : leader) =
  while l.l_fetch_out < 8 && not (Queue.is_empty l.l_fetch_q) do
    let eid = Queue.pop l.l_fetch_q in
    if Entry_tbl.mem l.l_fetching eid then
      if has_content (node_of t l.l_addr) eid then
        Entry_tbl.remove l.l_fetching eid
      else begin
        l.l_fetch_out <- l.l_fetch_out + 1;
        fetch_issue t l eid
      end
  done

and fetch_issue t (l : leader) eid =
  match Entry_tbl.find_opt l.l_fetching eid with
  | None -> () (* satisfied in the meantime; slot freed on content *)
  | Some attempts ->
      incr attempts;
      let attempt = !attempts in
      if attempt > 1 then t.fetch_retries <- t.fetch_retries + 1;
      (* Ask the proposer first, then rotate through the member groups
         (a dark or departed group cannot serve content). *)
      let target =
        let rec pick k left =
          let c = k mod t.ng in
          if left = 0 || member_now t c then c else pick (k + 1) (left - 1)
        in
        pick (eid.Types.gid + attempt - 1) t.ng
      in
      if target <> l.l_gid then begin
        trace_entry t eid "fetch_req" ~gid:l.l_gid ~node:0
          ~args:[ ("target", Trace.Int target) ];
        send ~bulk:false t ~src:l.l_addr ~dst:(leader_addr t target) ~bytes:Types.vote_bytes
          (Fetch_req { eid })
      end;
      (* Capped exponential backoff with deterministic jitter: the base
         equals the old fixed retry period, so the first retry fires on
         the familiar schedule while a persistent loss (crashed donor,
         long partition) stops hammering the same dead timer slot. *)
      let ft = Config.fetch_timeout_s in
      let delay =
        Backoff.delay ~seed:t.cfg.Config.seed
          ~salt:
            ((eid.Types.gid * 7919) + (eid.Types.seq * 31) + (l.l_gid * 131071))
          ~attempt ~base:(2.0 *. ft) ~cap:(8.0 *. ft)
      in
      Sim.after (sim_of t l.l_gid) delay (fun () ->
          if Entry_tbl.mem l.l_fetching eid then fetch_issue t l eid)

(* The one content-repair guard: when the leader lacks [eid], it gives
   the content [fetch_timeout_s] to arrive on its own, then (still
   alive and still lacking it) wants it fetched. [on_fire] runs first
   when the timer fires. *)
let fetch_after_timeout ?(on_fire = ignore) t (l : leader) eid =
  if not (has_content (node_of t l.l_addr) eid) then
    Sim.after (sim_of t l.l_gid) Config.fetch_timeout_s (fun () ->
        on_fire ();
        if alive t l.l_addr && not (has_content (node_of t l.l_addr) eid) then
          want_fetch t l eid)

(* A satisfied fetch frees its pump slot (part of the engine's
   on-leader-content composition). *)
let on_content t (l : leader) eid =
  if Entry_tbl.mem l.l_fetching eid then begin
    Entry_tbl.remove l.l_fetching eid;
    l.l_fetch_out <- max 0 (l.l_fetch_out - 1);
    pump_fetch t l
  end

(* ------------------------------------------------------------------ *)
(* Chunk rebuild                                                       *)
(* ------------------------------------------------------------------ *)

(* One chunk through the node's classifier for [eid]: created on the
   entry's first chunk, dropped for the entry's done bit once it
   rebuilds. *)
let classify (node : node) (eid : Types.entry_id) ~plan ~digest chunk =
  let rebuilt = node.n_rebuilt.(eid.Types.gid) in
  if Bitset.mem rebuilt eid.Types.seq then Rebuild.Already_done
  else
    let r =
      match Entry_tbl.find_opt node.n_rebuilding eid with
      | Some r -> r
      | None ->
          let r = Rebuild.Symbolic.create () in
          Entry_tbl.replace node.n_rebuilding eid r;
          r
    in
    match Rebuild.Symbolic.add r ~plan digest chunk with
    | Rebuild.Rebuilt () as v ->
        Entry_tbl.remove node.n_rebuilding eid;
        Bitset.add rebuilt eid.Types.seq;
        v
    | v -> v

let on_chunk_received t (node : node) ~eid ~root_tag ~index =
  let e = entry_of t eid in
  let g = node.n_addr.Topology.g in
  let plan = plan_between t ~src:eid.Types.gid ~dst:g in
  match classify node eid ~plan ~digest:e.digest { Rebuild.root_tag; index } with
  | Rebuild.Rebuilt () ->
      let cost = float_of_int e.size *. t.cfg.Config.cost.Config.decode_per_byte_s in
      if Trace.enabled t.trace then begin
        let tnow = now t in
        Trace.span t.trace ~cat:"entry" ~gid:g ~node:node.n_addr.Topology.n
          ~eid:(eid.Types.gid, eid.Types.seq) ~b:tnow ~e:(tnow +. cost)
          "rebuild"
      end;
      charge_cpu t node.n_addr cost (fun () ->
          if alive t node.n_addr then content_event t node eid)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Receiver-side message handlers                                      *)
(* ------------------------------------------------------------------ *)

let handle_chunk t (node : node) ~eid ~root_tag ~index =
  on_chunk_received t node ~eid ~root_tag ~index;
  (* Exchange with the rest of the group. *)
  let e = entry_of t eid in
  let bytes =
    chunk_bytes t ~src:eid.Types.gid ~dst:node.n_addr.Topology.g
      ~entry_len:e.size
  in
  broadcast_group ~bulk:true t ~src:node.n_addr ~bytes
    (Chunk_fwd { eid; root_tag; index })

(* [true] when the copy brought content this node lacked. *)
let handle_copy t (node : node) eid =
  let fresh = not (has_content node eid) in
  if fresh then begin
    content_event t node eid;
    broadcast_group ~bulk:true t ~src:node.n_addr ~bytes:(copy_bytes t eid)
      (Copy_fwd { eid })
  end;
  fresh

let handle_fetch_req t (node : node) ~src eid =
  if has_content node eid then
    send ~bulk:true t ~src:node.n_addr ~dst:src ~bytes:(copy_bytes t eid)
      (Copy { eid })

let observe (t : Node_ctx.t) sampler =
  Array.iter
    (fun l ->
      let labels = obs_group_labels l in
      Massbft_obs.Sampler.add_probe sampler
        ~name:"massbft_replication_fetch_outstanding"
        ~help:"Full-copy fetch requests in flight from this leader" ~labels
        (fun ~now:_ ~dt:_ -> float_of_int l.l_fetch_out);
      Massbft_obs.Sampler.add_probe sampler
        ~name:"massbft_replication_fetch_queued"
        ~help:"Missing entries waiting for a fetch slot" ~labels
        (fun ~now:_ ~dt:_ -> float_of_int (Queue.length l.l_fetch_q)))
    t.leaders;
  Array.iter
    (fun group ->
      Array.iter
        (fun node ->
          Massbft_obs.Sampler.add_probe sampler
            ~name:"massbft_replication_rebuilds_in_progress"
            ~help:
              "Entries with some chunks received but not yet rebuilt on \
               this node"
            ~labels:(obs_node_labels node)
            (fun ~now:_ ~dt:_ ->
              float_of_int (Entry_tbl.length node.n_rebuilding)))
        group)
    t.nodes
