module Bitset = Massbft_util.Bitset
module Inttbl = Massbft_util.Inttbl
module Trace = Massbft_trace.Trace

type role = Leader | Follower | Candidate

let role_name = function
  | Leader -> "leader"
  | Follower -> "follower"
  | Candidate -> "candidate"

type 'p msg =
  | Append of { term : int; index : int; entry : 'p }
  | Append_ack of { term : int; index : int }
  | Commit_note of { term : int; index : int }
  | Request_vote of { term : int; last_index : int }
  | Vote of { term : int; granted : bool }
  | Probe of { term : int }
  | Probe_reply of { term : int; last_index : int; commit_index : int }
  | Timeout_now of { term : int }
  | Replace of { term : int; index : int; entry : 'p }

type 'p callbacks = {
  send : int -> 'p msg -> unit;
  on_deliver : index:int -> 'p -> unit;
  on_commit : index:int -> 'p -> unit;
  on_role : role -> term:int -> unit;
  ack_guard : index:int -> 'p -> (unit -> unit) -> unit;
}

type 'p t = {
  ng : int;
  me : int;
  preferred : int option;  (* deployment-preferred leader of this instance *)
  cb : 'p callbacks;
  mutable cur_term : int;
  mutable cur_role : role;
  mutable voted_for : int option;  (* in cur_term *)
  votes : Bitset.t;  (* granted votes when candidate *)
  log : ('p * int) Inttbl.t;  (* 1-indexed; payload with its term *)
  mutable last_idx : int;  (* highest contiguous index stored *)
  mutable commit_idx : int;
  mutable delivered_idx : int;  (* highest index passed to on_deliver *)
  pending : ('p * int) Inttbl.t;  (* out-of-order appends awaiting gaps *)
  acks : Bitset.t Inttbl.t;
      (* leader: per-index accept voters, above commit_idx only *)
  acked_to_leader : Bitset.t;  (* follower: indices already acked *)
  mutable commit_note_max : int;  (* leader-advertised commit watermark *)
  mutable leader_hint : int option;  (* sender of cur_term leader traffic *)
  mutable trace : Trace.t;
  mutable tr_inst : int;  (* which global instance this replica is part of *)
}

let majority t = Massbft_util.Intmath.raft_quorum t.ng

let create ?initial_leader ~ng ~me cb =
  if ng < 1 then invalid_arg "Raft.create: need at least one group";
  if me < 0 || me >= ng then invalid_arg "Raft.create: bad group id";
  (match initial_leader with
  | Some l when l < 0 || l >= ng -> invalid_arg "Raft.create: bad initial leader"
  | _ -> ());
  let t = {
    ng;
    me;
    preferred = initial_leader;
    cb;
    cur_term = 0;
    cur_role = Follower;
    voted_for = None;
    votes = Bitset.create ();
    log = Inttbl.create 256;
    last_idx = 0;
    commit_idx = 0;
    delivered_idx = 0;
    pending = Inttbl.create 16;
    acks = Inttbl.create 64;
    acked_to_leader = Bitset.create ();
    commit_note_max = 0;
    leader_hint = initial_leader;
    trace = Trace.null;
    tr_inst = -1;
  }
  in
  (* The initial leadership assignment is a deployment-wide convention
     (instance i is led by group i), equivalent to every group having
     voted for it in term 1. *)
  (match initial_leader with
  | Some l ->
      t.cur_term <- 1;
      t.voted_for <- Some l;
      if l = me then t.cur_role <- Leader
  | None -> ());
  t

let set_trace t tr ~inst =
  t.trace <- tr;
  t.tr_inst <- inst

let acks_for t i =
  match Inttbl.find_opt t.acks i with
  | Some voters -> Bitset.elements voters
  | None -> []

let retained_acks t = Inttbl.length t.acks
let log_length t = Inttbl.length t.log + Inttbl.length t.pending

let role t = t.cur_role
let term t = t.cur_term
let last_index t = t.last_idx
let commit_index t = t.commit_idx
let entry_at t i = Option.map fst (Inttbl.find_opt t.log i)

let broadcast t msg =
  for i = 0 to t.ng - 1 do
    if i <> t.me then t.cb.send i msg
  done

let set_role t role =
  if t.cur_role <> role then begin
    t.cur_role <- role;
    Trace.instant t.trace ~cat:"raft" ~gid:t.me
      ~args:
        [ ("inst", Trace.Int t.tr_inst);
          ("role", Trace.Str (role_name role));
          ("term", Trace.Int t.cur_term) ]
      "role_change";
    t.cb.on_role role ~term:t.cur_term
  end

let step_down t new_term =
  t.cur_term <- new_term;
  t.voted_for <- None;
  Bitset.clear t.votes;
  t.leader_hint <- None;
  set_role t Follower

(* Advance the commit index through contiguous committed entries,
   firing on_commit in order. Only entries vouched for by the current
   term's leader may commit: a replica that slept through an election
   can hold a dead leader's uncommitted suffix at these indexes, and a
   newer-term Commit_note must not commit that suffix before the new
   leader's re-shipped entries have overwritten it (stored terms are
   rewritten to the shipping leader's term on arrival, so term equality
   is exactly that vouching). *)
let advance_commit_to t target =
  let continue = ref true in
  while !continue && t.commit_idx < target do
    match Inttbl.find t.log (t.commit_idx + 1) with
    | entry, term when term = t.cur_term ->
        t.commit_idx <- t.commit_idx + 1;
        Inttbl.remove t.acks t.commit_idx;
        t.cb.on_commit ~index:t.commit_idx entry
    | _ | (exception Not_found) -> continue := false
  done

(* Apply any buffered commit notes / leader-side majorities. *)
let leader_recheck_commit t =
  let continue = ref true in
  while !continue do
    let next = t.commit_idx + 1 in
    (* [find] rather than [find_opt] on the per-ack paths: a hit
       allocates no option. *)
    let votes =
      match Inttbl.find t.acks next with
      | voters -> Bitset.cardinal voters
      | exception Not_found -> 0
    in
    (* The leader's own copy counts as one replica. *)
    if Inttbl.mem t.log next && votes + 1 >= majority t then begin
      advance_commit_to t next;
      if t.commit_idx >= next then
        broadcast t (Commit_note { term = t.cur_term; index = next })
      else continue := false
    end
    else continue := false
  done

let follower_recheck_commit t = advance_commit_to t t.commit_note_max

(* Store contiguous entries from the pending buffer, delivering and
   acking each. *)
let absorb_pending t leader_hint =
  let continue = ref true in
  while !continue do
    let next = t.last_idx + 1 in
    match Inttbl.find_opt t.pending next with
    | None -> continue := false
    | Some (entry, term) ->
        Inttbl.remove t.pending next;
        Inttbl.replace t.log next (entry, term);
        t.last_idx <- next;
        t.delivered_idx <- next;
        t.cb.on_deliver ~index:next entry;
        let release () =
          if not (Bitset.mem t.acked_to_leader next) then begin
            Bitset.add t.acked_to_leader next;
            match leader_hint with
            | Some l when l <> t.me ->
                t.cb.send l (Append_ack { term = t.cur_term; index = next })
            | _ -> ()
          end
        in
        t.cb.ack_guard ~index:next entry release
  done;
  follower_recheck_commit t

let propose t entry =
  if t.cur_role <> Leader then invalid_arg "Raft.propose: not the leader";
  let index = t.last_idx + 1 in
  Inttbl.replace t.log index (entry, t.cur_term);
  t.last_idx <- index;
  t.delivered_idx <- index;
  t.cb.on_deliver ~index entry;
  broadcast t (Append { term = t.cur_term; index; entry });
  (* A 1-group universe commits instantly. *)
  leader_recheck_commit t;
  index

let become_leader t =
  set_role t Leader;
  t.leader_hint <- Some t.me;
  Bitset.clear t.acked_to_leader;
  (* The new leader now vouches for its inherited uncommitted suffix:
     re-stamp it with the new term (it is re-shipped under that term
     anyway) so the commit guard in [advance_commit_to] accepts it, and
     drop ack sets collected under dead terms — every entry must be
     re-acknowledged in this term before it can count toward a
     majority. *)
  for i = t.commit_idx + 1 to t.last_idx do
    let entry, _ = Inttbl.find t.log i in
    Inttbl.replace t.log i (entry, t.cur_term)
  done;
  Inttbl.reset t.acks;
  (* Learn where every follower's log ends, then ship it the missing
     suffix (Probe_reply handler below). *)
  broadcast t (Probe { term = t.cur_term });
  leader_recheck_commit t

let replace_uncommitted t ~index entry =
  if t.cur_role <> Leader then
    invalid_arg "Raft.replace_uncommitted: not the leader";
  if index <= t.commit_idx || index > t.last_idx then
    invalid_arg "Raft.replace_uncommitted: index outside the uncommitted suffix";
  Inttbl.replace t.log index (entry, t.cur_term);
  (* Stale acks referred to the replaced entry. *)
  Inttbl.remove t.acks index;
  broadcast t (Replace { term = t.cur_term; index; entry })

let heartbeat t =
  if t.cur_role = Leader then broadcast t (Probe { term = t.cur_term })

let start_election t =
  t.cur_term <- t.cur_term + 1;
  t.leader_hint <- None;
  Trace.instant t.trace ~cat:"raft" ~gid:t.me
    ~args:[ ("inst", Trace.Int t.tr_inst); ("term", Trace.Int t.cur_term) ]
    "election";
  t.voted_for <- Some t.me;
  Bitset.clear t.votes;
  Bitset.add t.votes t.me;
  set_role t Candidate;
  if Bitset.cardinal t.votes >= majority t then become_leader t
  else
    broadcast t (Request_vote { term = t.cur_term; last_index = t.last_idx })

let handle t ~from msg =
  if from < 0 || from >= t.ng || from = t.me then ()
  else
    match msg with
    | Append { term; index; entry } ->
        if term > t.cur_term then step_down t term;
        if term = t.cur_term then begin
          if t.cur_role = Candidate then set_role t Follower;
          t.leader_hint <- Some from;
          (* Conflict rule: a stale uncommitted suffix left by a dead
             leader is overwritten by a newer-term append at the same
             index (committed entries can never conflict thanks to the
             vote restriction). *)
          (if index <= t.last_idx then
             match Inttbl.find_opt t.log index with
             | Some (_, stored_term) when stored_term < term ->
                 for i = index to t.last_idx do
                   Inttbl.remove t.log i;
                   Bitset.remove t.acked_to_leader i
                 done;
                 Inttbl.reset t.pending;
                 t.last_idx <- index - 1;
                 t.delivered_idx <- min t.delivered_idx (index - 1)
             | _ -> ());
          if index > t.last_idx && not (Inttbl.mem t.log index) then begin
            Inttbl.replace t.pending index (entry, term);
            absorb_pending t (Some from)
          end
          else if index <= t.last_idx then begin
            (* Duplicate (e.g. a new leader's resend): re-ack so the
               sender can make progress. *)
            if Bitset.mem t.acked_to_leader index then
              t.cb.send from (Append_ack { term = t.cur_term; index })
          end
        end
    | Append_ack { term; index } ->
        if term > t.cur_term then step_down t term
        else if term = t.cur_term && t.cur_role = Leader then begin
          (* A committed index never reads its ack set again. *)
          if index > t.commit_idx then begin
            match Inttbl.find t.acks index with
            | voters -> Bitset.add voters from
            | exception Not_found ->
                let voters = Bitset.create () in
                Bitset.add voters from;
                Inttbl.replace t.acks index voters
          end;
          leader_recheck_commit t
        end
    | Commit_note { term; index } ->
        if term > t.cur_term then step_down t term;
        if term = t.cur_term && t.cur_role <> Leader then
          t.leader_hint <- Some from;
        if term = t.cur_term && index > t.commit_note_max then begin
          t.commit_note_max <- index;
          follower_recheck_commit t
        end
    | Request_vote { term; last_index } ->
        if term > t.cur_term then step_down t term;
        let grant =
          term = t.cur_term && t.voted_for = None && last_index >= t.last_idx
        in
        if grant then t.voted_for <- Some from;
        t.cb.send from (Vote { term = t.cur_term; granted = grant })
    | Vote { term; granted } ->
        if term > t.cur_term then step_down t term
        else if term = t.cur_term && t.cur_role = Candidate && granted then begin
          Bitset.add t.votes from;
          if Bitset.cardinal t.votes >= majority t then become_leader t
        end
    | Probe { term } ->
        if term > t.cur_term then step_down t term;
        if term = t.cur_term then begin
          if t.cur_role = Candidate then set_role t Follower;
          if t.cur_role <> Leader then t.leader_hint <- Some from;
          t.cb.send from
            (Probe_reply
               { term = t.cur_term; last_index = t.last_idx; commit_index = t.commit_idx })
        end
    | Probe_reply { term; last_index; commit_index } ->
        if term > t.cur_term then step_down t term
        else if term = t.cur_term && t.cur_role = Leader then begin
          (* The follower's log is only guaranteed to match ours up to
             its commit index; its uncommitted suffix may be a dead
             leader's leftovers, so re-ship from there. Matching entries
             are cheap duplicates (re-acked), conflicting ones are
             replaced via the term-truncation rule. *)
          let from_idx = min last_index commit_index in
          for i = from_idx + 1 to t.last_idx do
            let entry, _ = Inttbl.find t.log i in
            t.cb.send from (Append { term = t.cur_term; index = i; entry })
          done;
          if t.commit_idx > 0 then
            t.cb.send from (Commit_note { term = t.cur_term; index = t.commit_idx });
          (* Leadership transfer-back (paper §V-C): once the instance's
             preferred leader has recovered and its log has caught up,
             hand leadership home by prompting an immediate campaign. *)
          if
            t.preferred = Some from && from <> t.me
            && last_index + 8 >= t.last_idx
          then begin
            (* Abdicate immediately: we just shipped [from] our entire
               log, and by not proposing anything further we guarantee
               its campaign is at least as up-to-date as every voter. *)
            t.cb.send from (Timeout_now { term = t.cur_term });
            set_role t Follower
          end
        end
    | Timeout_now { term } ->
        (* Leadership-transfer prompt. Only honor it when it comes from
           the node currently believed to be this term's leader: a
           single Byzantine sender must not be able to trigger spurious
           elections (and with them term inflation and vote churn) by
           spraying Timeout_now at followers. A higher-term Timeout_now
           from an unknown sender still advances our term but does not
           start a campaign. *)
        if term > t.cur_term then step_down t term
        else if
          term = t.cur_term && t.cur_role <> Leader
          && t.leader_hint = Some from
        then start_election t
    | Replace { term; index; entry } ->
        if term > t.cur_term then step_down t term;
        if term = t.cur_term && t.cur_role <> Leader then
          t.leader_hint <- Some from;
        if term = t.cur_term then
          if index > t.last_idx then begin
            (* Not received yet: treat as a normal append. *)
            if not (Inttbl.mem t.log index) then begin
              Inttbl.replace t.pending index (entry, term);
              absorb_pending t (Some from)
            end
          end
          else if index > t.commit_idx then begin
            (* Overwrite the uncommitted copy regardless of its term and
               re-run the accept guard for the new payload. *)
            Inttbl.replace t.log index (entry, term);
            Bitset.remove t.acked_to_leader index;
            let release () =
              if not (Bitset.mem t.acked_to_leader index) then begin
                Bitset.add t.acked_to_leader index;
                if from <> t.me then
                  t.cb.send from (Append_ack { term = t.cur_term; index })
              end
            in
            t.cb.ack_guard ~index entry release
          end
