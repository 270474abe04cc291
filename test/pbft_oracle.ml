(* PBFT as it stood before the vote tallies moved onto bitsets and
   decided digests into an array: one [Set.Make (Int)] of voters per
   digest in a [Map.Make (String)] per slot and phase, and every slot,
   decided ones included, in a polymorphic [Hashtbl]. Kept as a test
   oracle only; test_consensus drives it and Massbft_consensus.Pbft
   with the same message streams and checks that both send, decide and
   retain the same. The wire types are the real module's. *)

open Massbft_consensus.Pbft
module ISet = Set.Make (Int)
module SMap = Map.Make (String)

type slot = {
  mutable slot_view : int;  (* the view the vote sets below belong to *)
  mutable accepted : string option;  (* digest pre-prepared in slot_view *)
  mutable prepares : ISet.t SMap.t;  (* digest -> prepare voters *)
  mutable commits : ISet.t SMap.t;  (* digest -> commit voters *)
  mutable sent_commit : bool;
  mutable prepared : bool;
  mutable decided_digest : string option;
}

type vc_state = {
  mutable vc_voters : ISet.t;
  mutable vc_reproposals : string SMap.t;  (* keyed by string_of_int seq *)
}

type t = {
  cfg : config;
  cb : callbacks;
  mutable n : int;
      (* current group size; diverges from [cfg.n] only across a live
         membership reconfiguration (all replicas resize at the same
         epoch boundary, so quorum math stays consistent group-wide) *)
  mutable f : int;
  mutable quorum : int;
  mutable cur_view : int;
  mutable in_view_change : bool;
  slots : (int, slot) Hashtbl.t;
  mutable held_votes : int;  (* voter ids across every slot's vote sets *)
  vc : (int, vc_state) Hashtbl.t;  (* keyed by target view *)
  mutable proposed : ISet.t;  (* seqs this leader proposed in cur_view *)
}

let leader_of_view ~n ~view = view mod n

let create (cfg : config) cb =
  if cfg.n < 1 then invalid_arg "Pbft.create: empty group";
  if cfg.me < 0 || cfg.me >= cfg.n then invalid_arg "Pbft.create: bad replica id";
  let f = Massbft_util.Intmath.pbft_f cfg.n in
  {
    cfg;
    cb;
    n = cfg.n;
    f;
    quorum = (2 * f) + 1;
    cur_view = 0;
    in_view_change = false;
    slots = Hashtbl.create 64;
    held_votes = 0;
    vc = Hashtbl.create 4;
    proposed = ISet.empty;
  }

let view t = t.cur_view
let is_leader t = leader_of_view ~n:t.n ~view:t.cur_view = t.cfg.me

let decided t seq =
  match Hashtbl.find_opt t.slots seq with
  | None -> None
  | Some s -> s.decided_digest

let count_votes votes = SMap.fold (fun _ ids n -> n + ISet.cardinal ids) votes 0

let drop_votes t s =
  t.held_votes <- t.held_votes - count_votes s.prepares - count_votes s.commits;
  s.prepares <- SMap.empty;
  s.commits <- SMap.empty

let slot t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some s ->
      (* Vote sets from older views are void after a view change. *)
      if s.slot_view < t.cur_view then begin
        s.slot_view <- t.cur_view;
        s.accepted <- None;
        drop_votes t s;
        s.sent_commit <- false;
        s.prepared <- false
      end;
      s
  | None ->
      let s =
        {
          slot_view = t.cur_view;
          accepted = None;
          prepares = SMap.empty;
          commits = SMap.empty;
          sent_commit = false;
          prepared = false;
          decided_digest = None;
        }
      in
      Hashtbl.replace t.slots seq s;
      s

let broadcast t msg =
  for i = 0 to t.n - 1 do
    if i <> t.cfg.me then t.cb.send i msg
  done

let votes_for votes digest =
  Option.value ~default:ISet.empty (SMap.find_opt digest votes)

let add_vote t votes digest id =
  let cur = votes_for votes digest in
  if ISet.mem id cur then votes
  else begin
    t.held_votes <- t.held_votes + 1;
    SMap.add digest (ISet.add id cur) votes
  end

(* Re-examine a slot after any state change and move it forward. *)
let rec advance t seq s =
  match (s.accepted, s.decided_digest) with
  | None, _ | _, Some _ -> ()
  | Some d, None ->
      (* Phase 2: become prepared (or skip straight past it). *)
      if not s.prepared then
        if t.cfg.skip_prepare then s.prepared <- true
        else if ISet.cardinal (votes_for s.prepares d) >= t.quorum then
          s.prepared <- true;
      (* Phase 3: first time prepared, cast our commit. *)
      if s.prepared && not s.sent_commit then begin
        s.sent_commit <- true;
        s.commits <- add_vote t s.commits d t.cfg.me;
        broadcast t (Commit { view = s.slot_view; seq; digest = d });
        advance t seq s
      end
      else if s.prepared then begin
        let committers = votes_for s.commits d in
        if ISet.cardinal committers >= t.quorum then begin
          s.decided_digest <- Some d;
          (* A decided slot never reads its votes again. *)
          drop_votes t s;
          t.cb.decide
            {
              cert_seq = seq;
              cert_digest = d;
              cert_view = s.slot_view;
              cert_signers = ISet.elements committers;
            }
        end
      end

let accept_pre_prepare t ~seq ~digest =
  let s = slot t seq in
  match s.accepted with
  | Some _ -> () (* only the first pre-prepare per view/seq is accepted *)
  | None ->
      if s.decided_digest = None then begin
        s.accepted <- Some digest;
        (* The leader's pre-prepare doubles as its prepare vote. *)
        s.prepares <-
          add_vote t s.prepares digest (leader_of_view ~n:t.n ~view:t.cur_view);
        if (not t.cfg.skip_prepare) && not (is_leader t) then begin
          s.prepares <- add_vote t s.prepares digest t.cfg.me;
          broadcast t (Prepare { view = t.cur_view; seq; digest })
        end;
        advance t seq s
      end

let propose t ~seq ~digest =
  if not (is_leader t) then invalid_arg "Pbft.propose: not the leader";
  if t.in_view_change then invalid_arg "Pbft.propose: view change in progress";
  if ISet.mem seq t.proposed then
    invalid_arg "Pbft.propose: sequence already proposed in this view";
  t.proposed <- ISet.add seq t.proposed;
  broadcast t (Pre_prepare { view = t.cur_view; seq; digest });
  accept_pre_prepare t ~seq ~digest

(* The (seq, digest) pairs this replica prepared but has not decided —
   what must survive into the next view. *)
let prepared_undecided t =
  Hashtbl.fold
    (fun seq s acc ->
      match (s.prepared, s.accepted, s.decided_digest) with
      | true, Some d, None -> (seq, d) :: acc
      | _ -> acc)
    t.slots []

let vc_state t nv =
  match Hashtbl.find_opt t.vc nv with
  | Some st -> st
  | None ->
      let st = { vc_voters = ISet.empty; vc_reproposals = SMap.empty } in
      Hashtbl.replace t.vc nv st;
      st

let enter_view t nv =
  t.cur_view <- nv;
  t.in_view_change <- false;
  t.proposed <- ISet.empty

let record_vc_vote t ~nv ~from ~prepared =
  let st = vc_state t nv in
  st.vc_voters <- ISet.add from st.vc_voters;
  List.iter
    (fun (seq, d) ->
      st.vc_reproposals <- SMap.add (string_of_int seq) d st.vc_reproposals)
    prepared;
  st

let broadcast_view_change t nv =
  let prepared = prepared_undecided t in
  ignore (record_vc_vote t ~nv ~from:t.cfg.me ~prepared);
  broadcast t (View_change { new_view = nv; prepared })

let maybe_complete_view_change t nv =
  let st = vc_state t nv in
  if
    ISet.cardinal st.vc_voters >= t.quorum
    && leader_of_view ~n:t.n ~view:nv = t.cfg.me
    && t.cur_view < nv
  then begin
    let reproposals =
      SMap.fold
        (fun seq_s d acc -> (int_of_string seq_s, d) :: acc)
        st.vc_reproposals []
      |> List.sort compare
    in
    enter_view t nv;
    broadcast t (New_view { view = nv; reproposals });
    List.iter
      (fun (seq, d) ->
        t.proposed <- ISet.add seq t.proposed;
        accept_pre_prepare t ~seq ~digest:d)
      reproposals
  end

let start_view_change ?target t =
  let nv =
    match target with
    | None -> t.cur_view + 1
    | Some v -> max (t.cur_view + 1) v
  in
  t.in_view_change <- true;
  broadcast_view_change t nv;
  maybe_complete_view_change t nv

let in_view_change t = t.in_view_change
let proposed t ~seq = ISet.mem seq t.proposed

(* Post-recovery state transfer: a replica that was down while the
   group moved on adopts the current view so it can vote again. Slot
   vote state from the old view is voided lazily (see [slot]); decided
   slots keep their digests. *)
let rejoin t ~view = if view > t.cur_view then enter_view t view

(* Live membership reconfiguration: adopt the group's new active size.
   Every replica resizes at the same epoch boundary (the totally ordered
   position of the config entry), so quorum counting never mixes sizes.
   A retired replica ([me >= n]) simply stops being addressed. *)
let resize t ~n =
  if n < 1 then invalid_arg "Pbft.resize: empty group";
  t.n <- n;
  t.f <- Massbft_util.Intmath.pbft_f n;
  t.quorum <- (2 * t.f) + 1

let size t = t.n
let retained_votes t = t.held_votes

let open_slots t =
  Hashtbl.fold (fun _ s n -> if s.decided_digest = None then n + 1 else n) t.slots 0

(* State transfer: record a decided slot verbatim on a joining replica,
   without re-running consensus or firing [decide] — the embedder has
   already applied the transferred prefix. First decision wins, as
   everywhere else. *)
let install_decided t ~seq ~digest =
  let s = slot t seq in
  if s.decided_digest = None then begin
    s.accepted <- Some digest;
    s.decided_digest <- Some digest;
    drop_votes t s
  end

let handle t ~from msg =
  if from < 0 || from >= t.n || from = t.cfg.me then ()
  else
    match msg with
    | Pre_prepare { view; seq; digest } ->
        if
          view = t.cur_view
          && (not t.in_view_change)
          && from = leader_of_view ~n:t.n ~view
        then accept_pre_prepare t ~seq ~digest
    | Prepare { view; seq; digest } ->
        if view = t.cur_view && not t.in_view_change then begin
          let s = slot t seq in
          if s.decided_digest = None then begin
            s.prepares <- add_vote t s.prepares digest from;
            advance t seq s
          end
        end
    | Commit { view; seq; digest } ->
        if view = t.cur_view && not t.in_view_change then begin
          let s = slot t seq in
          if s.decided_digest = None then begin
            s.commits <- add_vote t s.commits digest from;
            advance t seq s
          end
        end
    | View_change { new_view; prepared } ->
        if new_view > t.cur_view then begin
          let st = record_vc_vote t ~nv:new_view ~from ~prepared in
          (* Liveness rule: join a view change once f+1 others are in it,
             even if our own timer has not fired. *)
          if
            ISet.cardinal st.vc_voters >= t.f + 1
            && not (ISet.mem t.cfg.me st.vc_voters)
          then begin
            t.in_view_change <- true;
            broadcast_view_change t new_view
          end;
          maybe_complete_view_change t new_view
        end
    | New_view { view; reproposals } ->
        if view > t.cur_view && from = leader_of_view ~n:t.n ~view then begin
          enter_view t view;
          List.iter
            (fun (seq, d) -> accept_pre_prepare t ~seq ~digest:d)
            reproposals
        end
