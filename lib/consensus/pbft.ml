module Bitset = Massbft_util.Bitset
module Inttbl = Massbft_util.Inttbl
module IMap = Map.Make (Int)
module Trace = Massbft_trace.Trace

type msg =
  | Pre_prepare of { view : int; seq : int; digest : string }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string }
  | View_change of { new_view : int; prepared : (int * string) list }
  | New_view of { view : int; reproposals : (int * string) list }

type certificate = {
  cert_seq : int;
  cert_digest : string;
  cert_view : int;
  cert_signers : int list;
}

type config = { n : int; me : int; skip_prepare : bool }
type callbacks = { send : int -> msg -> unit; decide : certificate -> unit }

(* The voters for one digest. A slot holds one tally per digest voted
   for in its view: one in the normal case, more only under
   equivocation, so a list searched with [String.equal] (which tests
   physical equality first) stays short. Only the accepted digest's
   count is ever read, so the order of the tallies does not matter. *)
type tally = { t_digest : string; voters : Bitset.t }

(* An undecided sequence number's voting state. Deciding removes the
   slot from [slots] and records the digest in [decided]. *)
type slot = {
  mutable slot_view : int;  (* the view the vote sets below belong to *)
  mutable accepted : string option;  (* digest pre-prepared in slot_view *)
  mutable prepares : tally list;
  mutable commits : tally list;
  mutable sent_commit : bool;
  mutable prepared : bool;
}

type vc_state = {
  vc_voters : Bitset.t;
  mutable vc_reproposals : string IMap.t;  (* seq -> digest *)
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
  slots : slot Inttbl.t;  (* undecided seqs only *)
  mutable decided : string array;
      (* [decided.(seq)]: the digest decided at [seq], or [undecided];
         grows by doubling *)
  mutable held_votes : int;  (* voter ids across every slot's vote sets *)
  vc : vc_state Inttbl.t;  (* keyed by target view *)
  proposed : Bitset.t;  (* seqs this leader proposed in cur_view *)
  mutable trace : Trace.t;
  mutable tr_gid : int;
}

let leader_of_view ~n ~view = view mod n

(* Marks a seq with no decision in [decided]; compared physically, so no
   digest a caller passes can be mistaken for it. *)
let undecided = String.make 1 '\000'

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
    slots = Inttbl.create 64;
    decided = [||];
    held_votes = 0;
    vc = Inttbl.create 4;
    proposed = Bitset.create ();
    trace = Trace.null;
    tr_gid = -1;
  }

let set_trace t tr ~gid =
  t.trace <- tr;
  t.tr_gid <- gid

let view t = t.cur_view
let is_leader t = leader_of_view ~n:t.n ~view:t.cur_view = t.cfg.me

let is_decided t seq = seq < Array.length t.decided && t.decided.(seq) != undecided

(* A closed seq takes no votes and opens no slot: it is decided, or
   negative (never a valid sequence number). *)
let closed t seq = seq < 0 || is_decided t seq
let decided t seq = if seq >= 0 && is_decided t seq then Some t.decided.(seq) else None

let record_decided t seq digest =
  let len = Array.length t.decided in
  if seq >= len then begin
    let a = Array.make (max (seq + 1) (2 * len)) undecided in
    Array.blit t.decided 0 a 0 len;
    t.decided <- a
  end;
  t.decided.(seq) <- digest

let count_votes votes =
  List.fold_left (fun n tl -> n + Bitset.cardinal tl.voters) 0 votes

let drop_votes t s =
  t.held_votes <- t.held_votes - count_votes s.prepares - count_votes s.commits;
  s.prepares <- [];
  s.commits <- []

(* The open slot for an undecided [seq], created on first use.
   [Inttbl.find] rather than [find_opt]: a hit, once per message,
   allocates no option; the miss, once per slot, raises. *)
let slot t seq =
  match Inttbl.find t.slots seq with
  | s ->
      (* Vote sets from older views are void after a view change. *)
      if s.slot_view < t.cur_view then begin
        s.slot_view <- t.cur_view;
        s.accepted <- None;
        drop_votes t s;
        s.sent_commit <- false;
        s.prepared <- false
      end;
      s
  | exception Not_found ->
      let s =
        {
          slot_view = t.cur_view;
          accepted = None;
          prepares = [];
          commits = [];
          sent_commit = false;
          prepared = false;
        }
      in
      Inttbl.replace t.slots seq s;
      s

let broadcast t msg =
  for i = 0 to t.n - 1 do
    if i <> t.cfg.me then t.cb.send i msg
  done

(* What [voters_for] returns for a digest nobody voted for; never
   added to, so lookups allocate no option. *)
let no_voters = Bitset.create ()

let rec voters_for votes digest =
  match votes with
  | [] -> no_voters
  | tl :: rest ->
      if String.equal tl.t_digest digest then tl.voters else voters_for rest digest

(* Records [id]'s vote for [digest]; returns the slot's new tally list
   (extended only by a digest not voted for yet). *)
let add_vote t votes digest id =
  let voters = voters_for votes digest in
  if voters == no_voters then begin
    let voters = Bitset.create () in
    Bitset.add voters id;
    t.held_votes <- t.held_votes + 1;
    { t_digest = digest; voters } :: votes
  end
  else begin
    if not (Bitset.mem voters id) then begin
      Bitset.add voters id;
      t.held_votes <- t.held_votes + 1
    end;
    votes
  end

(* Re-examine an open slot after any state change and move it forward. *)
let rec advance t seq s =
  match s.accepted with
  | None -> ()
  | Some d ->
      (* Phase 2: become prepared (or skip straight past it). *)
      if not s.prepared then
        if t.cfg.skip_prepare then s.prepared <- true
        else if Bitset.cardinal (voters_for s.prepares d) >= t.quorum then
          s.prepared <- true;
      (* Phase 3: first time prepared, cast our commit. *)
      if s.prepared && not s.sent_commit then begin
        s.sent_commit <- true;
        s.commits <- add_vote t s.commits d t.cfg.me;
        broadcast t (Commit { view = s.slot_view; seq; digest = d });
        advance t seq s
      end
      else if s.prepared then begin
        let committers = voters_for s.commits d in
        if Bitset.cardinal committers >= t.quorum then begin
          (* A decided seq never reads its votes again: one word is left. *)
          drop_votes t s;
          Inttbl.remove t.slots seq;
          record_decided t seq d;
          t.cb.decide
            {
              cert_seq = seq;
              cert_digest = d;
              cert_view = s.slot_view;
              cert_signers = Bitset.elements committers;
            }
        end
      end

let accept_pre_prepare t ~seq ~digest =
  if not (closed t seq) then
    let s = slot t seq in
    match s.accepted with
    | Some _ -> () (* only the first pre-prepare per view/seq is accepted *)
    | None ->
        s.accepted <- Some digest;
        (* The leader's pre-prepare doubles as its prepare vote. *)
        s.prepares <-
          add_vote t s.prepares digest (leader_of_view ~n:t.n ~view:t.cur_view);
        if (not t.cfg.skip_prepare) && not (is_leader t) then begin
          s.prepares <- add_vote t s.prepares digest t.cfg.me;
          broadcast t (Prepare { view = t.cur_view; seq; digest })
        end;
        advance t seq s

let propose t ~seq ~digest =
  if not (is_leader t) then invalid_arg "Pbft.propose: not the leader";
  if t.in_view_change then invalid_arg "Pbft.propose: view change in progress";
  if Bitset.mem t.proposed seq then
    invalid_arg "Pbft.propose: sequence already proposed in this view";
  Bitset.add t.proposed seq;
  broadcast t (Pre_prepare { view = t.cur_view; seq; digest });
  accept_pre_prepare t ~seq ~digest

(* The (seq, digest) pairs this replica prepared but has not decided —
   what must survive into the next view. Every slot is undecided. *)
let prepared_undecided t =
  Inttbl.fold
    (fun seq s acc ->
      match (s.prepared, s.accepted) with
      | true, Some d -> (seq, d) :: acc
      | _ -> acc)
    t.slots []

let vc_state t nv =
  match Inttbl.find_opt t.vc nv with
  | Some st -> st
  | None ->
      let st = { vc_voters = Bitset.create (); vc_reproposals = IMap.empty } in
      Inttbl.replace t.vc nv st;
      st

let enter_view t nv =
  t.cur_view <- nv;
  t.in_view_change <- false;
  Bitset.clear t.proposed;
  Trace.instant t.trace ~cat:"pbft" ~gid:t.tr_gid ~node:t.cfg.me
    ~args:[ ("view", Trace.Int nv) ]
    "new_view"

let record_vc_vote t ~nv ~from ~prepared =
  let st = vc_state t nv in
  Bitset.add st.vc_voters from;
  List.iter
    (fun (seq, d) ->
      if seq >= 0 then st.vc_reproposals <- IMap.add seq d st.vc_reproposals)
    prepared;
  st

let broadcast_view_change t nv =
  Trace.instant t.trace ~cat:"pbft" ~gid:t.tr_gid ~node:t.cfg.me
    ~args:[ ("new_view", Trace.Int nv) ]
    "view_change";
  let prepared = prepared_undecided t in
  ignore (record_vc_vote t ~nv ~from:t.cfg.me ~prepared);
  broadcast t (View_change { new_view = nv; prepared })

let maybe_complete_view_change t nv =
  let st = vc_state t nv in
  if
    Bitset.cardinal st.vc_voters >= t.quorum
    && leader_of_view ~n:t.n ~view:nv = t.cfg.me
    && t.cur_view < nv
  then begin
    let reproposals = IMap.bindings st.vc_reproposals in
    enter_view t nv;
    broadcast t (New_view { view = nv; reproposals });
    List.iter
      (fun (seq, d) ->
        Bitset.add t.proposed seq;
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
let proposed t ~seq = Bitset.mem t.proposed seq

(* Post-recovery state transfer: a replica that was down while the
   group moved on adopts the current view so it can vote again. Slot
   vote state from the old view is voided lazily (see [slot]); decided
   digests are kept. *)
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
let open_slots t = Inttbl.length t.slots
let decided_words t = Array.length t.decided

(* State transfer: record a decision verbatim on a joining replica,
   without re-running consensus or firing [decide] — the embedder has
   already applied the transferred prefix. First decision wins, as
   everywhere else; an open slot at [seq] is closed with its votes. *)
let install_decided t ~seq ~digest =
  if seq < 0 then invalid_arg "Pbft.install_decided: negative sequence number";
  if not (is_decided t seq) then begin
    (match Inttbl.find_opt t.slots seq with
    | Some s ->
        drop_votes t s;
        Inttbl.remove t.slots seq
    | None -> ());
    record_decided t seq digest
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
        if view = t.cur_view && (not t.in_view_change) && not (closed t seq) then begin
          let s = slot t seq in
          s.prepares <- add_vote t s.prepares digest from;
          advance t seq s
        end
    | Commit { view; seq; digest } ->
        if view = t.cur_view && (not t.in_view_change) && not (closed t seq) then begin
          let s = slot t seq in
          s.commits <- add_vote t s.commits digest from;
          advance t seq s
        end
    | View_change { new_view; prepared } ->
        if new_view > t.cur_view then begin
          let st = record_vc_vote t ~nv:new_view ~from ~prepared in
          (* Liveness rule: join a view change once f+1 others are in it,
             even if our own timer has not fired. *)
          if
            Bitset.cardinal st.vc_voters >= t.f + 1
            && not (Bitset.mem st.vc_voters t.cfg.me)
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
