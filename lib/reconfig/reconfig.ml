(* The live-membership reconfiguration controller.

   A plan (Reconfig_spec) is armed on a freshly created engine whose
   topology was expanded by [Reconfig_spec.provision]: every slot the
   plan will ever activate exists from the start but is dark — crashed
   and masked out of every quorum — until its epoch. At each plan
   event the controller powers the dark hardware up, catches it up by a
   rate-limited chunked state transfer (with capped-backoff retry and
   donor rotation), and then submits the command's one-line wire form
   to the coordinator group, where the batcher forms it into a zero-txn
   epoch-boundary entry. That entry rides global consensus like any
   batch, so its position in the total order is the agreed cut: each
   leader switches membership where its ordering stage places the entry
   (the [reconfig_order] seam), and applies the rest of the flip when it
   executes it (the [reconfig_apply] seam). A joining group's leader is
   activated by cloning the first executor's replicated state at that
   exact cut, so it resumes with the incumbents' ledger head and
   ordering state, then proposes its own entries from the next epoch. The database itself is
   the deployment's one shared store (entries execute once), so the
   transfer is modelled by its cost — bytes priced from the store's
   size — and nothing is copied. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module N = Massbft.Node_ctx
module Bitset = Massbft_util.Bitset
module Types = Massbft.Types
module Config = Massbft.Config
module Backoff = Massbft.Backoff
module Orderer = Massbft.Orderer
module Batcher = Massbft.Batcher
module Execution = Massbft.Execution
module Replication = Massbft.Replication
module Global_consensus = Massbft.Global_consensus
module Pbft = Massbft_consensus.Pbft
module Raft = Massbft_consensus.Raft
module Kvstore = Massbft_exec.Kvstore
module Ledger = Massbft_exec.Ledger
module W = Massbft_workload.Workload
module Entry_tbl = Types.Entry_tbl
module Spec = Reconfig_spec

(* ------------------------------------------------------------------ *)
(* Records the epoch-aware invariants consume                          *)
(* ------------------------------------------------------------------ *)

(* One leader's application of one epoch boundary: [b_pos] is that
   leader's executed-entry count at the flip. All leaders execute the
   same total order, so agreement on (cmd, pos) per boundary is exactly
   "every group switched at the same sequence number". *)
type boundary = {
  b_eid : Types.entry_id;
  b_cmd : string;
  b_gid : int;
  b_pos : int;
  b_at : float;
}

type join_report = {
  j_cmd : string;
  j_gid : int;
  j_donor : int;  (* the group that served the state transfer *)
  j_bytes : int;
  j_chunks : int;
  j_retries : int;
  j_started : float;
  j_activated : float;
  j_height : int;
  j_src_height : int;
  j_head : string;
  j_src_head : string;
}

(* A chunked snapshot shipment over the bulk lane. One chunk is in
   flight at a time (the rate limit); a watchdog detects a stalled
   flow (crashed donor or joiner, partition) and resumes from the last
   delivered chunk after a capped-backoff delay, rotating to another
   member donor. *)
type transfer = {
  x_wire : string;  (* the command submitted when the transfer lands *)
  x_dst : Topology.addr;
  x_gid : int;  (* the joining group (add-group) / host group (add-node) *)
  x_lan : bool;  (* add-node: intra-group snapshot fetch *)
  x_bytes : int;
  x_chunks : int;
  x_started : float;
  mutable x_donor : int;
  mutable x_got : int;
  mutable x_last : int;
  mutable x_attempt : int;
  mutable x_retries : int;
  mutable x_done : bool;
}

type t = {
  eng : Engine.t;
  c : N.t;
  mutable next_gid : int;  (* next unused gid for add-group *)
  next_slot : int array;  (* next dark slot to power up, per group *)
  applied : unit Entry_tbl.t;  (* executed-side flip, once per eid *)
  members_at : int list Entry_tbl.t;  (* membership after each boundary *)
  pending : (string, transfer) Hashtbl.t;  (* wire command -> transfer *)
  mutable boundaries : boundary list;  (* newest first *)
  mutable joins : join_report list;
  mutable retries : int;
}

let chunk_bytes = 256 * 1024

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let members (c : N.t) =
  let ms = ref [] in
  for g = c.N.ng - 1 downto 0 do
    if c.N.g_member.(g) then ms := g :: !ms
  done;
  !ms

let rank g ms =
  let rec go i = function
    | [] -> None
    | x :: r -> if x = g then Some i else go (i + 1) r
  in
  go 0 ms

let group_view (c : N.t) g =
  let v = ref 0 in
  for n = 0 to c.N.active_n.(g) - 1 do
    match c.N.nodes.(g).(n).N.n_pbft with
    | Some p -> if Pbft.view p > !v then v := Pbft.view p
    | None -> ()
  done;
  !v

(* Drive the group's PBFT to the smallest future view whose round-robin
   leader is [slot] (leader re-placement, and view re-alignment across
   a resize — [leader_of_view] depends on n). *)
let drive_leader_to t g slot =
  let c = t.c in
  let n = c.N.active_n.(g) in
  let v = ref (group_view c g + 1) in
  while !v mod n <> slot do
    incr v
  done;
  for i = 0 to n - 1 do
    let a = { Topology.g; n = i } in
    if Topology.alive c.N.topo a then
      match c.N.nodes.(g).(i).N.n_pbft with
      | Some p -> Pbft.start_view_change ~target:!v p
      | None -> ()
  done

(* After a resize, keep the acting leader in place: if the new view
   mapping deposed it, drive a view change back to its slot. *)
let realign t g =
  let c = t.c in
  let l = c.N.leaders.(g) in
  if l.N.l_addr.Topology.n < c.N.active_n.(g) then
    match (N.node_of c l.N.l_addr).N.n_pbft with
    | Some p when not (Pbft.is_leader p) ->
        drive_leader_to t g l.N.l_addr.Topology.n
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* State transfer                                                      *)
(* ------------------------------------------------------------------ *)

let live_donors t ~exclude =
  let c = t.c in
  let ds = ref [] in
  for g = c.N.ng - 1 downto 0 do
    if
      g <> exclude && c.N.g_member.(g)
      && Topology.alive c.N.topo c.N.leaders.(g).N.l_addr
    then ds := g :: !ds
  done;
  match !ds with [] -> [ 0 ] | l -> l

let finish t x =
  if not x.x_done then begin
    x.x_done <- true;
    Engine.submit_conf t.eng x.x_wire
  end

let rec ship t x =
  if not x.x_done then
    if x.x_got >= x.x_chunks then finish t x
    else begin
      let c = t.c in
      let src =
        if x.x_lan then c.N.leaders.(x.x_gid).N.l_addr
        else c.N.leaders.(x.x_donor).N.l_addr
      in
      let bytes = min chunk_bytes (x.x_bytes - (x.x_got * chunk_bytes)) in
      (* A send from or to a crashed node is silently dropped by the
         topology: the continuation never runs and the watchdog takes
         over. Duplicate chunks from a spurious retry only add traffic;
         progress counts deliveries. *)
      Topology.send ~bulk:true c.N.topo ~src ~dst:x.x_dst ~bytes:(max 1 bytes)
        (fun () ->
          x.x_got <- x.x_got + 1;
          ship t x)
    end

let rec watch t x =
  if not x.x_done then begin
    let c = t.c in
    let s = N.sim_of c x.x_dst.Topology.g in
    Sim.after s 0.75 (fun () ->
        if not x.x_done then begin
          if x.x_got = x.x_last then begin
            x.x_attempt <- x.x_attempt + 1;
            x.x_retries <- x.x_retries + 1;
            t.retries <- t.retries + 1;
            if not x.x_lan then begin
              let ds = live_donors t ~exclude:x.x_gid in
              x.x_donor <- List.nth ds (x.x_attempt mod List.length ds)
            end;
            let d =
              Backoff.delay ~seed:c.N.cfg.Config.seed
                ~salt:((x.x_gid * 131) + x.x_attempt)
                ~attempt:x.x_attempt ~base:0.1 ~cap:1.5
            in
            Sim.after s d (fun () -> ship t x)
          end;
          x.x_last <- x.x_got;
          watch t x
        end)
  end

let start_transfer t ~wire ~gid ~dst ~lan =
  let c = t.c in
  let donor =
    if lan then gid
    else match live_donors t ~exclude:gid with d :: _ -> d | [] -> 0
  in
  let dl = c.N.leaders.(donor) in
  let bytes =
    (Kvstore.size c.N.shared_store * 96)
    + (Ledger.height dl.N.l_ledger * 160)
    + 4096
  in
  let x =
    {
      x_wire = wire;
      x_dst = dst;
      x_gid = gid;
      x_lan = lan;
      x_bytes = bytes;
      x_chunks = (bytes + chunk_bytes - 1) / chunk_bytes;
      x_started = N.now c;
      x_donor = donor;
      x_got = 0;
      x_last = -1;
      x_attempt = 0;
      x_retries = 0;
      x_done = false;
    }
  in
  Hashtbl.replace t.pending wire x;
  ship t x;
  watch t x

(* ------------------------------------------------------------------ *)
(* Plan-event triggers                                                 *)
(* ------------------------------------------------------------------ *)

let trigger t (cmd : Spec.command) =
  let c = t.c in
  match cmd with
  | Spec.Add_node g ->
      let slot = t.next_slot.(g) in
      t.next_slot.(g) <- slot + 1;
      let a = { Topology.g; n = slot } in
      Engine.recover_node t.eng a;
      start_transfer t ~wire:(Spec.command_to_string cmd) ~gid:g ~dst:a
        ~lan:true
  | Spec.Remove_node _ | Spec.Move_leader _ | Spec.Remove_group _ ->
      Engine.submit_conf t.eng (Spec.command_to_string cmd)
  | Spec.Add_group { size } ->
      let gid = t.next_gid in
      t.next_gid <- gid + 1;
      Engine.recover_group t.eng gid;
      let wire = Printf.sprintf "add-group size %d gid %d" size gid in
      start_transfer t ~wire ~gid ~dst:c.N.leaders.(gid).N.l_addr ~lan:false

(* ------------------------------------------------------------------ *)
(* The epoch flip: per-command executed-side actions                   *)
(* ------------------------------------------------------------------ *)

(* Record a join as it activates: the pending transfer's receipt
   ([donor] and a zero-byte transfer starting now when none is pending)
   and the joiner's ledger against its source's. *)
let add_join t wire ~gid ~donor ~src ~dst =
  let now = N.now t.c in
  let donor, bytes, chunks, retries, started =
    match Hashtbl.find_opt t.pending wire with
    | Some x -> (x.x_donor, x.x_bytes, x.x_chunks, x.x_retries, x.x_started)
    | None -> (donor, 0, 0, 0, now)
  in
  t.joins <-
    {
      j_cmd = wire;
      j_gid = gid;
      j_donor = donor;
      j_bytes = bytes;
      j_chunks = chunks;
      j_retries = retries;
      j_started = started;
      j_activated = now;
      j_height = Ledger.height dst;
      j_src_height = Ledger.height src;
      j_head = Ledger.head_hash dst;
      j_src_head = Ledger.head_hash src;
    }
    :: t.joins

let activate_node t g wire =
  let c = t.c in
  let slot = c.N.active_n.(g) in
  c.N.active_n.(g) <- slot + 1;
  Array.iter
    (fun (nd : N.node) ->
      match nd.N.n_pbft with
      | Some p -> Pbft.resize p ~n:(slot + 1)
      | None -> ())
    c.N.nodes.(g);
  (* State transfer onto the joining replica: the group's decided
     history and current view, so it votes from the next slot on. *)
  let src = c.N.leaders.(g).N.l_addr in
  (match c.N.nodes.(g).(slot).N.n_pbft with
  | Some p ->
      for seq = 1 to Engine.proposed_seqs t.eng ~gid:g do
        match Engine.replica_decided t.eng ~g ~n:src.Topology.n ~seq with
        | Some d -> Pbft.install_decided p ~seq ~digest:d
        | None -> ()
      done;
      Pbft.rejoin p ~view:(group_view c g)
  | None -> ());
  realign t g;
  let ledger = c.N.leaders.(g).N.l_ledger in
  add_join t wire ~gid:g ~donor:g ~src:ledger ~dst:ledger

let retire_node t g =
  let c = t.c in
  let slot = c.N.active_n.(g) - 1 in
  c.N.active_n.(g) <- slot;
  Array.iter
    (fun (nd : N.node) ->
      match nd.N.n_pbft with Some p -> Pbft.resize p ~n:slot | None -> ())
    c.N.nodes.(g);
  Engine.crash_node t.eng { Topology.g; n = slot };
  realign t g

let place_leader t (a : Topology.addr) =
  let c = t.c in
  let l = c.N.leaders.(a.Topology.g) in
  if not (Topology.addr_equal l.N.l_addr a) then
    (* The engine's leadership watchdog adopts the new view's leader and
       migrates the leader record once the view change completes. *)
    drive_leader_to t a.Topology.g a.Topology.n

let expel_group t g =
  let c = t.c in
  c.N.g_member.(g) <- false;
  (* GeoBFT holds a proposer's pipeline slot until every group its copy
     went to has noted it; the departing group never will. *)
  Global_consensus.forget_group c g;
  Engine.crash_group t.eng g

(* The consistent-cut clone is one function per leader-state variant
   (the source and the joiner hold the same variants). Raft: every
   commit index at or below the cut is transferred history
   (anti-entropy backfills the rest under [skip_commits_below]). *)
let clone_raft c ~(src : N.raft_state) ~(dst : N.raft_state) =
  Array.iteri
    (fun inst raft -> dst.N.skip_commits_below.(inst) <- Raft.commit_index raft)
    src.N.rafts;
  Array.fill dst.N.last_heard 0 (Array.length dst.N.last_heard) (N.now c)

let clone_glob c ~(src : N.leader) ~(dst : N.leader) =
  match (src.N.l_glob, dst.N.l_glob) with
  | (N.Per_group_raft s | N.Single_raft { raft = s; _ }),
    (N.Per_group_raft d | N.Single_raft { raft = d; _ }) ->
      clone_raft c ~src:s ~dst:d
  | _ -> ()

(* The zero-transaction boundary executes synchronously inside its
   round's enqueue sweep (zero CPU cost short-circuits the charge), so
   the boundary's own round-mates may not have reached the source's
   queue yet when this clone runs. Rebuild the joiner's backlog from
   the round structure itself: every member entry of an already-closed
   round that is not in the cloned ledger, in execution order. The
   joiner proposes from its first member round on. *)
let clone_rounds c ~(src : N.leader) ~(dst : N.leader) (s : N.rounds) (d : N.rounds) =
  (* Marks below the cut's next round are implied by [next_round]. *)
  Entry_tbl.filter_map_inplace
    (fun (k : Types.entry_id) v -> if k.Types.seq < s.N.next_round then None else Some v)
    d.N.round_ready;
  Entry_tbl.iter (fun k v -> Entry_tbl.replace d.N.round_ready k v) s.N.round_ready;
  d.N.next_round <- s.N.next_round;
  let in_ledger = Hashtbl.create 64 in
  List.iter
    (fun (b : Ledger.block) -> Hashtbl.replace in_ledger (b.Ledger.gid, b.Ledger.seq) ())
    (Ledger.blocks src.N.l_ledger);
  for r = 1 to s.N.next_round - 1 do
    for g = 0 to c.N.ng - 1 do
      if N.member_in_round c g r && not (Hashtbl.mem in_ledger (g, r)) then
        Queue.push { Types.gid = g; seq = r } dst.N.l_exec_q
    done
  done;
  dst.N.l_next_seq <- c.N.member_from.(dst.N.l_gid)

let clone_order c ~(src : N.leader) ~(dst : N.leader) =
  match (src.N.l_ord, dst.N.l_ord) with
  | (N.Sync_rounds s | N.Epoch_rounds s), (N.Sync_rounds d | N.Epoch_rounds d) ->
      clone_rounds c ~src ~dst s d
  | _ -> Queue.iter (fun x -> Queue.push x dst.N.l_exec_q) src.N.l_exec_q

(* The consistent-cut clone: the first member leader to execute the
   admission boundary has, at that instant, exactly the agreed pre-epoch
   state — ledger, ordering and commit bookkeeping. The joiner adopts
   all of it and starts proposing in the next epoch. *)
let admit_group t ~(src : N.leader) ~gid ~size wire =
  let c = t.c in
  let dst = c.N.leaders.(gid) in
  c.N.active_n.(gid) <- size;
  c.N.g_member.(gid) <- true;
  List.iter
    (fun (b : Ledger.block) ->
      ignore
        (Ledger.append dst.N.l_ledger ~gid:b.Ledger.gid ~seq:b.Ledger.seq
           ~txn_count:b.Ledger.txn_count ~payload_digest:b.Ledger.payload_digest))
    (Ledger.blocks src.N.l_ledger);
  Entry_tbl.iter
    (fun k v -> Entry_tbl.replace dst.N.l_committed_unexec k v)
    src.N.l_committed_unexec;
  clone_glob c ~src ~dst;
  clone_order c ~src ~dst;
  let fetch eid =
    if
      Engine.entry_digest t.eng eid <> None
      && not (N.has_content (N.node_of c dst.N.l_addr) eid)
    then Replication.want_fetch c dst eid
  in
  (* Content for the rebuilt backlog predates the flip, so no copy ever
     targeted the joiner; fetch it rather than waiting for the pump's
     head-repair timeout. *)
  Queue.iter fetch dst.N.l_exec_q;
  (* The joiner's VTS state resumes last: the source's Ts-lane marks
     overwrite the joiner's, entry by entry, and activating the orderer
     drains the order into the execution queue, behind the backlog
     fetched above. *)
  (match (src.N.l_ord, dst.N.l_ord) with
  | N.Async_vts s, N.Async_vts d ->
      Array.blit s.N.clk_of 0 d.N.clk_of 0 (Array.length s.N.clk_of);
      Array.iteri
        (fun inst row ->
          Array.iteri
            (fun g (m : N.ts_marks) ->
              let dm = d.N.ts.(inst).(g) in
              List.iter
                (fun seq ->
                  Bitset.add dm.N.ts_seen seq;
                  if Bitset.mem m.N.ts_committed seq then Bitset.add dm.N.ts_committed seq
                  else Bitset.remove dm.N.ts_committed seq)
                (Bitset.elements m.N.ts_seen))
            row)
        s.N.ts;
      Orderer.copy_state ~src:s.N.orderer ~into:d.N.orderer;
      Orderer.set_active d.N.orderer gid true
  | _ -> ());
  dst.N.l_in_flight <- 0;
  dst.N.l_batch_pending <- true;
  (* GeoBFT ships copies point-to-point at proposal time: entries of
     post-cut rounds proposed before this flip never targeted the
     joiner, and its round barrier would starve waiting for them. Fetch
     whatever is already registered; later proposals include it. *)
  (match dst.N.l_glob with
  | N.Per_group_raft _ | N.Single_raft _ -> ()
  | N.Direct_broadcast _ ->
      let from_seq = max 1 c.N.member_from.(gid) in
      for j = 0 to c.N.ng - 1 do
        if j <> gid && c.N.g_member.(j) then
          for seq = from_seq to Engine.proposed_seqs t.eng ~gid:j do
            fetch { Types.gid = j; seq }
          done
      done);
  add_join t wire ~gid ~donor:src.N.l_gid ~src:src.N.l_ledger ~dst:dst.N.l_ledger

(* ------------------------------------------------------------------ *)
(* The two engine seams                                                *)
(* ------------------------------------------------------------------ *)

(* Placement seam: every entry [l] orders after the boundary is ordered
   under the new membership. The first leader to place it writes the
   round window before any leader evaluates the next round; [l]'s
   orderer flips before emitting anything later — the departing
   leader's own included, as it orders until expelled. Idempotent. *)
let on_order t (l : N.leader) (e : N.entry) =
  let c = t.c in
  let wire = Option.get e.N.conf in
  let next = e.N.eid.Types.seq + 1 in
  match Spec.command_of_string wire with
  | Spec.Remove_group g -> (
      c.N.member_until.(g) <- next;
      match l.N.l_ord with
      | N.Async_vts v -> Orderer.set_active v.N.orderer g false
      | N.Sync_rounds _ | N.Epoch_rounds _ | N.Global_log -> ())
  | Spec.Add_group _ -> (
      let gid = Spec.wire_gid wire in
      c.N.member_from.(gid) <- next;
      match l.N.l_ord with
      | N.Async_vts v when l.N.l_gid <> gid -> Orderer.set_active v.N.orderer gid true
      | N.Async_vts _ | N.Sync_rounds _ | N.Epoch_rounds _ | N.Global_log -> ())
  | Spec.Add_node _ | Spec.Remove_node _ | Spec.Move_leader _ -> ()

(* Executed-side flip, applied once globally (first executor) plus a
   per-executor part: each leader takes its key range at its own
   execution of the boundary, which is the same position in every
   leader's order. *)
let apply_once t (l : N.leader) (e : N.entry) wire cmd =
  if not (Entry_tbl.mem t.applied e.N.eid) then begin
    Entry_tbl.replace t.applied e.N.eid ();
    let c = t.c in
    (match cmd with
    | Spec.Add_node g -> activate_node t g wire
    | Spec.Remove_node g -> retire_node t g
    | Spec.Move_leader a -> place_leader t a
    | Spec.Add_group { size } -> admit_group t ~src:l ~gid:(Spec.wire_gid wire) ~size wire
    | Spec.Remove_group g -> expel_group t g);
    let ms = members c in
    Entry_tbl.replace t.members_at e.N.eid ms;
    match cmd with
    | Spec.Add_group _ ->
        (* The joiner never executes its own admission entry — the clone
           is its execution. Give it its key range and a synthetic
           boundary record at the donor's position, then start it. *)
        let gid = Spec.wire_gid wire in
        let dst = c.N.leaders.(gid) in
        (match rank gid ms with
        | Some i -> W.set_shard dst.N.l_gen ~index:i ~count:(List.length ms)
        | None -> ());
        t.boundaries <-
          {
            b_eid = e.N.eid;
            b_cmd = wire;
            b_gid = gid;
            b_pos = Ledger.height dst.N.l_ledger;
            b_at = N.now c;
          }
          :: t.boundaries;
        Execution.pump c dst;
        Batcher.try_batch c dst
    | _ -> ()
  end

let on_apply t (l : N.leader) (e : N.entry) =
  let c = t.c in
  let wire = match e.N.conf with Some w -> w | None -> assert false in
  let cmd = Spec.command_of_string wire in
  apply_once t l e wire cmd;
  t.boundaries <-
    {
      b_eid = e.N.eid;
      b_cmd = wire;
      b_gid = l.N.l_gid;
      b_pos = Ledger.height l.N.l_ledger;
      b_at = N.now c;
    }
    :: t.boundaries;
  match cmd with
  | Spec.Add_group _ | Spec.Remove_group _ -> (
      match Entry_tbl.find_opt t.members_at e.N.eid with
      | Some ms -> (
          match rank l.N.l_gid ms with
          | Some i -> W.set_shard l.N.l_gen ~index:i ~count:(List.length ms)
          | None -> ())
      | None -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Arming                                                              *)
(* ------------------------------------------------------------------ *)

let arm eng ~(provisioned : Spec.provisioned) plan =
  let c = Engine.ctx eng in
  let ng = c.N.ng in
  let base_ng =
    let b = ref ng in
    (try
       for g = 0 to ng - 1 do
         if not provisioned.Spec.p_member.(g) then begin
           b := g;
           raise Exit
         end
       done
     with Exit -> ());
    !b
  in
  let t =
    {
      eng;
      c;
      next_gid = base_ng;
      next_slot = Array.copy provisioned.Spec.p_active;
      applied = Entry_tbl.create 8;
      members_at = Entry_tbl.create 8;
      pending = Hashtbl.create 8;
      boundaries = [];
      joins = [];
      retries = 0;
    }
  in
  if plan <> [] then begin
    Array.blit provisioned.Spec.p_active 0 c.N.active_n 0 ng;
    Array.blit provisioned.Spec.p_member 0 c.N.g_member 0 ng;
    for g = 0 to ng - 1 do
      if not provisioned.Spec.p_member.(g) then begin
        (* dark until its admission epoch *)
        c.N.member_from.(g) <- max_int;
        Topology.crash_group c.N.topo g
      end
      else begin
        let phys = Topology.group_size c.N.topo g in
        let act = provisioned.Spec.p_active.(g) in
        for n = act to phys - 1 do
          Topology.crash c.N.topo { Topology.g; n }
        done;
        if act < phys then
          Array.iter
            (fun (nd : N.node) ->
              match nd.N.n_pbft with
              | Some p -> Pbft.resize p ~n:act
              | None -> ())
            c.N.nodes.(g)
      end
    done;
    c.N.reconfig_order <- Some (fun _c l e -> on_order t l e);
    c.N.reconfig_apply <- Some (fun _c l e -> on_apply t l e);
    (* Leader re-placement and post-resize re-alignment ride the
       engine's leadership watchdog; fault-free reconfig runs need it
       armed up front. *)
    Engine.arm_watchdogs eng;
    let s0 = N.sim_of c 0 in
    List.iter
      (fun (ev : Spec.event) ->
        Sim.at s0 ev.Spec.at (fun () -> trigger t ev.Spec.cmd))
      (Spec.sorted plan)
  end;
  t

(* ------------------------------------------------------------------ *)
(* Accessors and the epoch-aware final checks                          *)
(* ------------------------------------------------------------------ *)

let boundaries t = List.rev t.boundaries
let joins t = List.rev t.joins
let transfer_retries t = t.retries
let epochs t = Entry_tbl.length t.applied
(* End-of-run epoch-aware checks, reported as (check, detail) pairs the
   chaos layer merges with the standard invariant violations:
   - epoch agreement: every leader applied each boundary with the same
     command at the same position in its executed stream;
   - on-chain record: each boundary is a zero-txn block in the
     coordinator's ledger;
   - join state transfer: at activation the joiner's ledger height and
     head hash equalled the clone source's;
   - join chain agreement: a joined group's ledger stays a prefix-
     consistent replica of the coordinator's afterwards. *)
let final_violations t =
  let c = t.c in
  let vs = ref [] in
  let add check detail = vs := (check, detail) :: !vs in
  let by_eid = Hashtbl.create 8 in
  List.iter
    (fun b ->
      let k = Types.entry_id_to_string b.b_eid in
      let prev = try Hashtbl.find by_eid k with Not_found -> [] in
      Hashtbl.replace by_eid k (b :: prev))
    t.boundaries;
  Hashtbl.iter
    (fun k bs ->
      match bs with
      | [] | [ _ ] -> ()
      | b0 :: rest ->
          List.iter
            (fun b ->
              if b.b_cmd <> b0.b_cmd then
                add "epoch_agreement"
                  (Printf.sprintf "boundary %s: g%d applied %S, g%d applied %S"
                     k b.b_gid b.b_cmd b0.b_gid b0.b_cmd);
              if b.b_pos <> b0.b_pos then
                add "epoch_agreement"
                  (Printf.sprintf
                     "boundary %s: g%d flipped at position %d, g%d at %d" k
                     b.b_gid b.b_pos b0.b_gid b0.b_pos))
            rest)
    by_eid;
  if t.boundaries <> [] then begin
    let on_chain = Hashtbl.create 64 in
    List.iter
      (fun (b : Ledger.block) ->
        Hashtbl.replace on_chain (b.Ledger.gid, b.Ledger.seq) b.Ledger.txn_count)
      (Ledger.blocks (Engine.ledger_of t.eng ~gid:0));
    Entry_tbl.iter
      (fun (eid : Types.entry_id) () ->
        match Hashtbl.find_opt on_chain (eid.Types.gid, eid.Types.seq) with
        | Some 0 -> ()
        | Some n ->
            add "epoch_on_chain"
              (Printf.sprintf "boundary %s recorded with %d txns (want 0)"
                 (Types.entry_id_to_string eid)
                 n)
        | None ->
            add "epoch_on_chain"
              (Printf.sprintf "boundary %s missing from the coordinator ledger"
                 (Types.entry_id_to_string eid)))
      t.applied
  end;
  List.iter
    (fun j ->
      if j.j_height <> j.j_src_height || j.j_head <> j.j_src_head then
        add "join_state_transfer"
          (Printf.sprintf
             "g%d activated at ledger height %d/head %s; source %d/%s" j.j_gid
             j.j_height
             (String.sub (j.j_head ^ String.make 8 '0') 0 8)
             j.j_src_height
             (String.sub (j.j_src_head ^ String.make 8 '0') 0 8));
      if j.j_gid > 0 && j.j_gid < c.N.ng && c.N.g_member.(j.j_gid) then begin
        let lj = Engine.ledger_of t.eng ~gid:j.j_gid in
        let l0 = Engine.ledger_of t.eng ~gid:0 in
        let p = Ledger.equal_prefix lj l0 in
        let m = min (Ledger.height lj) (Ledger.height l0) in
        if p < m then
          add "join_chain_agreement"
            (Printf.sprintf "g%d diverges from g0 at height %d" j.j_gid p)
      end)
    t.joins;
  List.rev !vs
