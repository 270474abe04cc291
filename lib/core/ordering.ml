(* Ordering stage: how globally-replicated entries reach a final
   execution order. [on_commit] matches on the ordering axis (Table II):

   - [Sync_rounds]: round-synchronous — round r executes when every
     group's entry r is ready (Baseline / GeoBFT / BR / EBR).
   - [Epoch_rounds k]: the same rounds; ISS's epoch-boundary gate is
     the batcher's admission check.
   - [Global_log]: Steward — the single Raft log's commit order IS the
     execution order.
   - [Async_vts]: MassBFT's asynchronous vector-timestamp ordering
     (Algorithm 2); the Orderer consumes Ts records from the
     global-consensus stage, so commits trigger nothing here. *)

open Node_ctx

(* [l_round_ready] holds marks for open rounds only: closing a round
   drops its marks, and everything below [l_next_round] counts as
   ready. *)
let round_ready (l : leader) (eid : Types.entry_id) =
  eid.Types.seq < l.l_next_round || Entry_tbl.mem l.l_round_ready eid

let rec mark_round_ready t (l : leader) eid =
  if not (round_ready l eid) then begin
    Entry_tbl.replace l.l_round_ready eid ();
    try_rounds t l
  end

and try_rounds t (l : leader) =
  (* Under a membership reconfiguration the barrier spans only the
     groups whose round-indexed window covers [r] — identical to "all
     groups" whenever no plan is armed. *)
  let round_complete r =
    let ok = ref true in
    for g = 0 to t.ng - 1 do
      if
        member_in_round t g r
        && not (Entry_tbl.mem l.l_round_ready { Types.gid = g; seq = r })
      then ok := false
    done;
    !ok
  in
  (* A zero-CPU entry (an epoch boundary) executes synchronously inside
     the pump, and its side effects can close the next round. A sweep
     re-entered that way returns at once: the outer sweep places the
     rest of round r first, then re-evaluates the barrier, so round r+1
     never lands ahead of round r's remaining entries. *)
  if not l.l_sweeping then begin
    l.l_sweeping <- true;
    while round_complete l.l_next_round do
      let r = l.l_next_round in
      l.l_next_round <- r + 1;
      for g = 0 to t.ng - 1 do
        Entry_tbl.remove l.l_round_ready { Types.gid = g; seq = r };
        if member_in_round t g r then
          Execution.enqueue t l { Types.gid = g; seq = r }
      done;
      (* ISS: closing a round may unblock the next epoch's proposals. *)
      Batcher.try_batch t t.leaders.(l.l_gid)
    done;
    l.l_sweeping <- false
  end

(* ------------------------------------------------------------------ *)
(* The VTS stamping lane (Async_vts / MassBFT)                         *)
(* ------------------------------------------------------------------ *)

(* Vector-timestamp records travel through the global Raft instances,
   but which entries get stamped, with what clock, and what a committed
   Ts record means are ordering questions — so the lane lives here and
   the Raft adapter (Global_consensus) calls in at its deliver/commit/
   role-change hooks.

   [l_ts] holds two bits per (instance, entry): [ts_seen] once we
   proposed a Ts record or one committed, [ts_committed] once one
   committed. An entry is stamped in an instance only while it is not
   seen there. *)

let marks (l : leader) inst (eid : Types.entry_id) = l.l_ts.(inst).(eid.Types.gid)

let unstamped (l : leader) inst eid =
  not (Bitset.mem (marks l inst eid).ts_seen eid.Types.seq)

let stamped (l : leader) eid = not (unstamped l l.l_gid eid)

let stamp (l : leader) inst eid ts =
  Bitset.add (marks l inst eid).ts_seen eid.Types.seq;
  ignore (Raft.propose l.l_rafts.(inst) (Ts { eid; ts }))

let assign_ts t (l : leader) eid =
  (* Overlapped VTS assignment: stamp the entry with our clock and
     replicate through our own instance (Fig. 7b). *)
  match t.ord with
  | Config.Async_vts ->
      if
        eid.Types.gid <> l.l_gid
        && unstamped l l.l_gid eid
        && Raft.role l.l_rafts.(l.l_gid) = Raft.Leader
      then begin
        stamp l l.l_gid eid l.l_clk;
        Entry_tbl.remove l.l_accept_notes eid
      end
  | Config.Sync_rounds | Config.Epoch_rounds _ | Config.Global_log -> ()

(* Catch-all timestamp assignment for every instance this leader
   currently leads: covers taken-over instances (frozen clocks on
   behalf of a crashed group, §V-C) and our own instance for entries
   whose deliver-time assignment was skipped during a leadership
   handover. *)
let stamp_led_instances (l : leader) eid =
  for j = 0 to Array.length l.l_rafts - 1 do
    if
      j <> eid.Types.gid
      && Raft.role l.l_rafts.(j) = Raft.Leader
      && unstamped l j eid
    then stamp l j eid l.l_clk_of.(j)
  done

(* Stamp every committed-but-unexecuted entry still lacking instance
   [inst]'s element: on a takeover this assigns the crashed group's
   frozen clock; on a transfer-back it repairs assignments skipped
   while we were not the leader. *)
let stamp_committed_unexec (l : leader) inst =
  Entry_tbl.iter
    (fun eid () ->
      if eid.Types.gid <> inst && unstamped l inst eid then
        stamp l inst eid l.l_clk_of.(inst))
    l.l_committed_unexec

(* A Ts record committed in instance [inst]'s log: feed the Orderer
   (first commit wins). *)
let on_ts_commit (l : leader) inst ~eid ~ts =
  let m = marks l inst eid in
  if not (Bitset.mem m.ts_committed eid.Types.seq) then begin
    Bitset.add m.ts_seen eid.Types.seq;
    Bitset.add m.ts_committed eid.Types.seq;
    match l.l_orderer with
    | Some o -> Orderer.on_timestamp o ~from_gid:inst ~eid ~ts
    | None -> ()
  end

(* An entry committed globally: round systems mark its round, Steward's
   global log executes in commit order, VTS waits for timestamps
   instead. *)
let on_commit t (l : leader) eid =
  match t.ord with
  | Config.Sync_rounds | Config.Epoch_rounds _ -> mark_round_ready t l eid
  | Config.Global_log -> Execution.enqueue t l eid
  | Config.Async_vts -> ()

let observe (t : Node_ctx.t) sampler =
  Array.iter
    (fun l ->
      let labels = obs_group_labels l in
      Massbft_obs.Sampler.add_probe sampler
        ~name:"massbft_ordering_round_ready"
        ~help:"Entries ready at the round barrier, waiting for the rest \
               of their round"
        ~labels
        (fun ~now:_ ~dt:_ -> float_of_int (Entry_tbl.length l.l_round_ready));
      Massbft_obs.Sampler.add_probe sampler ~name:"massbft_ordering_next_round"
        ~help:"Next round this leader will close" ~labels
        (fun ~now:_ ~dt:_ -> float_of_int l.l_next_round))
    t.leaders
