(* Replication stage: how a locally-decided batch travels to the other
   groups. Three strategies (Table II):

   - [leader_oneway]: the proposing leader ships f_j + 1 full copies to
     each remote group during the global phase (GeoBFT's optimized
     cluster-sending; also Steward/ISS/Baseline). Nothing to do at
     decide time — the global-consensus strategy invokes
     [send_oneway_copies].
   - [bijective_full]: every node ships full copies per the partitioned
     bijective sending plan of §IV-A (f1 + f2 + 1 copies).
   - [encoded_bijective]: every node erasure-codes the entry and ships
     its chunks per the Algorithm 1 transfer plan; receivers rebuild
     (MassBFT / EBR).

   This module also owns the receiver side: symbolic chunk rebuild with
   the bucket classification of Rebuild (§IV-C's DoS defence), full-copy
   handling, and the post-crash content fetch pump. *)

open Node_ctx

(* Plans for *active* group sizes under a reconfiguration, keyed by the
   size pair (two group pairs with the same sizes share a plan). Only
   consulted when a plan is armed. *)
let active_plans : (int * int, Transfer_plan.t) Hashtbl.t = Hashtbl.create 16

let plan_between t ~src ~dst =
  if t.reconfig_on then begin
    let key = (active_size t src, active_size t dst) in
    match Hashtbl.find_opt active_plans key with
    | Some p -> p
    | None ->
        let n1, n2 = key in
        let p = Transfer_plan.generate ~n1 ~n2 in
        Hashtbl.replace active_plans key p;
        p
  end
  else
    match t.plans.(src).(dst) with
    | Some p -> p
    | None ->
        let p =
          Transfer_plan.generate
            ~n1:(Topology.group_size t.topo src)
            ~n2:(Topology.group_size t.topo dst)
        in
        t.plans.(src).(dst) <- Some p;
        p

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
      if not (t.reconfig_on && node.n_addr.Topology.n >= active_size t g) then
      for j = 0 to t.ng - 1 do
        if j <> g && member_now t j then begin
          let plan = plan_between t ~src:g ~dst:j in
          let bytes = chunk_bytes t ~src:g ~dst:j ~entry_len:e.size in
          let root_tag =
            if node.n_byz then "tampered:" ^ e.digest else e.digest
          in
          List.iter
            (fun (c, r) ->
              send ~bulk:true t ~src:node.n_addr
                ~dst:{ Topology.g = j; n = r }
                ~bytes
                (Chunk { eid = e.eid; root_tag; index = c }))
            (Transfer_plan.sends_of plan ~sender:node.n_addr.Topology.n)
        end
      done)

let send_bijective_copies t (node : node) e =
  (* The general approach of §IV-A: the (partitioned) bijective
     cluster-sending plan, f1 + f2 + 1 full copies for similar group
     sizes. *)
  let g = node.n_addr.Topology.g in
  if t.reconfig_on && node.n_addr.Topology.n >= active_size t g then ()
  else
  for j = 0 to t.ng - 1 do
    if j <> g && member_now t j then begin
      let plan =
        Bijective_plan.generate ~n1:(active_size t g) ~n2:(active_size t j)
      in
      List.iter
        (fun r ->
          send ~bulk:true t ~src:node.n_addr
            ~dst:{ Topology.g = j; n = r }
            ~bytes:(copy_bytes t e.eid) (Copy { eid = e.eid }))
        (Bijective_plan.sends_of plan ~sender:node.n_addr.Topology.n)
    end
  done

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
        send t ~src:l.l_addr ~dst:(leader_addr t target) ~bytes:Types.vote_bytes
          (Fetch_req { eid })
      end;
      (* Capped exponential backoff with deterministic jitter: the base
         equals the old fixed retry period, so the first retry fires on
         the familiar schedule while a persistent loss (crashed donor,
         long partition) stops hammering the same dead timer slot. *)
      let ft = t.cfg.Config.fetch_timeout_s in
      let delay =
        Backoff.delay ~seed:t.cfg.Config.seed
          ~salt:
            ((eid.Types.gid * 7919) + (eid.Types.seq * 31) + (l.l_gid * 131071))
          ~attempt ~base:(2.0 *. ft) ~cap:(8.0 *. ft)
      in
      ignore
        (Sim.after t.sim delay (fun () ->
             if Entry_tbl.mem l.l_fetching eid then fetch_issue t l eid))

(* A satisfied fetch frees its pump slot (part of the engine's
   on-leader-content composition). *)
let on_content t (l : leader) eid =
  if Entry_tbl.mem l.l_fetching eid then begin
    Entry_tbl.remove l.l_fetching eid;
    l.l_fetch_out <- max 0 (l.l_fetch_out - 1);
    pump_fetch t l
  end

(* ------------------------------------------------------------------ *)
(* Symbolic chunk rebuild                                              *)
(* ------------------------------------------------------------------ *)

let rebuild_state (node : node) eid =
  match Entry_tbl.find_opt node.n_rebuilds eid with
  | Some r -> r
  | None ->
      let r =
        { rb_buckets = Hashtbl.create 2; rb_black = ISet.empty; rb_done = false }
      in
      Entry_tbl.replace node.n_rebuilds eid r;
      r

let on_chunk_received t (node : node) ~eid ~root_tag ~index =
  let e = entry_of t eid in
  let r = rebuild_state node eid in
  if (not r.rb_done) && not (ISet.mem index r.rb_black) then begin
    let bucket =
      match Hashtbl.find_opt r.rb_buckets root_tag with
      | Some b -> b
      | None ->
          let b = ref ISet.empty in
          Hashtbl.replace r.rb_buckets root_tag b;
          b
    in
    if not (ISet.mem index !bucket) then begin
      bucket := ISet.add index !bucket;
      let g = node.n_addr.Topology.g in
      let plan = plan_between t ~src:eid.Types.gid ~dst:g in
      if ISet.cardinal !bucket >= plan.Transfer_plan.n_data then
        if String.equal root_tag e.digest then begin
          r.rb_done <- true;
          let cost =
            float_of_int e.size *. t.cfg.Config.cost.Config.decode_per_byte_s
          in
          if Trace.enabled t.trace then begin
            let tnow = now t in
            Trace.span t.trace ~cat:"entry" ~gid:g ~node:node.n_addr.Topology.n
              ~eid:(eid.Types.gid, eid.Types.seq) ~b:tnow ~e:(tnow +. cost)
              "rebuild"
          end;
          charge_cpu t node.n_addr cost (fun () ->
              if alive t node.n_addr then content_event t node eid)
        end
        else begin
          (* Fake bucket: certificate validation fails, ids are burned
             (the DoS defence of §IV-C). *)
          r.rb_black <- ISet.union r.rb_black !bucket;
          Hashtbl.remove r.rb_buckets root_tag
        end
    end
  end

(* ------------------------------------------------------------------ *)
(* Receiver-side message handlers                                      *)
(* ------------------------------------------------------------------ *)

let handle_chunk t (node : node) ~eid ~root_tag ~index =
  on_chunk_received t node ~eid ~root_tag ~index;
  (* Exchange with the rest of the group (a Byzantine receiver forwards
     a tampered version instead). *)
  let e = entry_of t eid in
  let fwd_tag = if node.n_byz then "tampered:" ^ e.digest else root_tag in
  let bytes =
    chunk_bytes t ~src:eid.Types.gid ~dst:node.n_addr.Topology.g
      ~entry_len:e.size
  in
  broadcast_group ~bulk:true t ~src:node.n_addr ~bytes
    (Chunk_fwd { eid; root_tag = fwd_tag; index })

let handle_copy t (node : node) eid =
  if not (has_content node eid) then begin
    content_event t node eid;
    broadcast_group ~bulk:true t ~src:node.n_addr ~bytes:(copy_bytes t eid)
      (Copy_fwd { eid });
    t.strat.glob.g_on_copy t node eid
  end

let handle_fetch_req t (node : node) ~src eid =
  if has_content node eid then
    send ~bulk:true t ~src:node.n_addr ~dst:src ~bytes:(copy_bytes t eid)
      (Copy { eid })

(* ------------------------------------------------------------------ *)
(* Strategy values                                                     *)
(* ------------------------------------------------------------------ *)

let leader_oneway =
  {
    r_on_decide = (fun _ _ _ -> ());
    r_oneway = true;
    r_coding_s = (fun _ _ -> 0.0);
  }

let bijective_full =
  {
    r_on_decide = send_bijective_copies;
    r_oneway = false;
    r_coding_s = (fun _ _ -> 0.0);
  }

let encoded_bijective =
  {
    r_on_decide = send_chunks;
    r_oneway = false;
    r_coding_s =
      (fun t e ->
        float_of_int e.size
        *. (t.cfg.Config.cost.Config.encode_per_byte_s
           +. t.cfg.Config.cost.Config.decode_per_byte_s));
  }

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
              float_of_int
                (Entry_tbl.fold
                   (fun _ r acc -> if r.rb_done then acc else acc + 1)
                   node.n_rebuilds 0)))
        group)
    t.nodes
