(* Ordering stage: how globally-replicated entries reach a final
   execution order. Each function matches on the leader's ordering
   state (Table II's ordering axis):

   - [Sync_rounds]: round-synchronous — round r executes when every
     group's entry r is ready (Baseline / GeoBFT / BR / EBR).
   - [Epoch_rounds]: the same rounds; ISS's epoch-boundary gate is
     the batcher's admission check.
   - [Global_log]: Steward — the single Raft log's commit order IS the
     execution order.
   - [Async_vts]: MassBFT's asynchronous vector-timestamp ordering
     (Algorithm 2); the Orderer consumes Ts records from the
     global-consensus stage, so a commit only advances the clocks our
     stamps carry. *)

open Node_ctx

(* ------------------------------------------------------------------ *)
(* The round barrier (Sync_rounds / Epoch_rounds)                      *)
(* ------------------------------------------------------------------ *)

let ready_in (rs : rounds) (eid : Types.entry_id) =
  eid.Types.seq < rs.next_round || Entry_tbl.mem rs.round_ready eid

let try_rounds t (l : leader) rs =
  (* Under a membership reconfiguration the barrier spans only the
     groups whose round-indexed window covers [r] — identical to "all
     groups" whenever no plan is armed. *)
  let round_complete r =
    let ok = ref true in
    for g = 0 to t.ng - 1 do
      if
        member_in_round t g r
        && not (Entry_tbl.mem rs.round_ready { Types.gid = g; seq = r })
      then ok := false
    done;
    !ok
  in
  (* A zero-CPU entry (an epoch boundary) executes synchronously inside
     the pump, and its side effects can close the next round. A sweep
     re-entered that way returns at once: the outer sweep places the
     rest of round r first, then re-evaluates the barrier, so round r+1
     never lands ahead of round r's remaining entries. *)
  if not rs.sweeping then begin
    rs.sweeping <- true;
    while round_complete rs.next_round do
      let r = rs.next_round in
      rs.next_round <- r + 1;
      for g = 0 to t.ng - 1 do
        Entry_tbl.remove rs.round_ready { Types.gid = g; seq = r };
        if member_in_round t g r then
          Execution.enqueue t l { Types.gid = g; seq = r }
      done;
      (* ISS: closing a round may unblock the next epoch's proposals. *)
      Batcher.try_batch t t.leaders.(l.l_gid)
    done;
    rs.sweeping <- false
  end

let round_ready (l : leader) eid =
  match l.l_ord with
  | Sync_rounds rs | Epoch_rounds rs -> ready_in rs eid
  | Async_vts _ | Global_log -> false

let mark_round_ready t (l : leader) eid =
  match l.l_ord with
  | Sync_rounds rs | Epoch_rounds rs ->
      if not (ready_in rs eid) then begin
        Entry_tbl.replace rs.round_ready eid ();
        try_rounds t l rs
      end
  | Async_vts _ | Global_log -> ()

(* ------------------------------------------------------------------ *)
(* The Ts lane and VTS stamping (Async_vts / MassBFT)                  *)
(* ------------------------------------------------------------------ *)

(* Vector-timestamp records travel through the global Raft instances,
   but which entries get stamped, with what clock, and what a committed
   Ts record means are ordering questions — so the lane and its marks
   live here, in the VTS state, and the Raft adapter (Global_consensus)
   calls in at its deliver/commit/role-change hooks. Under every other
   ordering those calls do nothing, so no Ts record is ever proposed.

   [v.ts] holds two bits per (instance, entry): [ts_seen] once we
   proposed a Ts record or one committed, [ts_committed] once one
   committed. An entry is stamped in an instance only while it is not
   seen there. *)

let with_vts (l : leader) f =
  match l.l_ord with
  | Async_vts v -> f v
  | Sync_rounds _ | Epoch_rounds _ | Global_log -> ()

let marks (v : vts_state) inst (eid : Types.entry_id) = v.ts.(inst).(eid.Types.gid)

let unstamped v inst eid =
  not (Bitset.mem (marks v inst eid).ts_seen eid.Types.seq)

let stamped (l : leader) v eid = not (unstamped v l.l_gid eid)

let stamp (r : raft_state) v inst eid ts =
  Bitset.add (marks v inst eid).ts_seen eid.Types.seq;
  ignore (Raft.propose r.rafts.(inst) (Ts { eid; ts }))

(* Overlapped VTS assignment: stamp a remote entry with our clock and
   replicate through our own instance (Fig. 7b). *)
let assign_ts (l : leader) r eid =
  with_vts l (fun v ->
      if
        eid.Types.gid <> l.l_gid
        && unstamped v l.l_gid eid
        && Raft.role r.rafts.(l.l_gid) = Raft.Leader
      then begin
        stamp r v l.l_gid eid v.clk;
        Entry_tbl.remove v.accept_notes eid
      end)

let stamp_with_clk_of r v inst (eid : Types.entry_id) =
  if eid.Types.gid <> inst && unstamped v inst eid then
    stamp r v inst eid v.clk_of.(inst)

(* Catch-all timestamp assignment for every instance this leader
   currently leads: covers taken-over instances (frozen clocks on
   behalf of a crashed group, §V-C) and our own instance for entries
   whose deliver-time assignment was skipped during a leadership
   handover. *)
let stamp_led_instances (l : leader) r eid =
  with_vts l (fun v ->
      Array.iteri
        (fun j raft -> if Raft.role raft = Raft.Leader then stamp_with_clk_of r v j eid)
        r.rafts)

(* Stamp every committed-but-unexecuted entry still lacking instance
   [inst]'s element: on a takeover this assigns the crashed group's
   frozen clock; on a transfer-back it repairs assignments skipped
   while we were not the leader. *)
let stamp_committed_unexec (l : leader) r inst =
  with_vts l (fun v ->
      Entry_tbl.iter (fun eid () -> stamp_with_clk_of r v inst eid) l.l_committed_unexec)

(* A Ts record committed in instance [inst]'s log: feed the Orderer
   (first commit wins). *)
let on_ts_commit (l : leader) inst ~eid ~ts =
  with_vts l (fun v ->
      let m = marks v inst eid in
      if not (Bitset.mem m.ts_committed eid.Types.seq) then begin
        Bitset.add m.ts_seen eid.Types.seq;
        Bitset.add m.ts_committed eid.Types.seq;
        Orderer.on_timestamp v.orderer ~from_gid:inst ~eid ~ts
      end)

(* An entry committed globally in instance [inst]: round systems mark
   its round, Steward's global log executes in commit order, VTS
   advances the instance's clock and the clock its own stamps carry and
   waits for timestamps. *)
let on_commit t (l : leader) inst (eid : Types.entry_id) =
  match l.l_ord with
  | Sync_rounds _ | Epoch_rounds _ -> mark_round_ready t l eid
  | Global_log -> Execution.enqueue t l eid
  | Async_vts v ->
      v.clk_of.(inst) <- eid.Types.seq;
      if eid.Types.gid = l.l_gid then v.clk <- max v.clk eid.Types.seq

let observe (t : Node_ctx.t) sampler =
  Array.iter
    (fun l ->
      match l.l_ord with
      | Sync_rounds rs | Epoch_rounds rs ->
          let labels = obs_group_labels l in
          Massbft_obs.Sampler.add_probe sampler
            ~name:"massbft_ordering_round_ready"
            ~help:"Entries ready at the round barrier, waiting for the rest \
                   of their round"
            ~labels
            (fun ~now:_ ~dt:_ -> float_of_int (Entry_tbl.length rs.round_ready));
          Massbft_obs.Sampler.add_probe sampler ~name:"massbft_ordering_next_round"
            ~help:"Next round this leader will close" ~labels
            (fun ~now:_ ~dt:_ -> float_of_int rs.next_round)
      | Async_vts _ | Global_log -> ())
    t.leaders
