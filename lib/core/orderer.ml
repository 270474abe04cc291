module Entry_tbl = Types.Entry_tbl

type t = {
  ng : int;
  on_execute : Types.entry_id -> unit;
  entries : Vts.t Entry_tbl.t;
  heads : Vts.t array;  (* heads.(i): next unexecuted entry of group i *)
  last_ts : int array;  (* last timestamp seen from each group's stream *)
  active : bool array;
      (* membership mask: an inactive group's head is neither a
         candidate minimum nor a constraint (all true without a
         reconfiguration) *)
  mutable executed : int;
  mutable executing : bool;  (* re-entrancy guard for the drain loop *)
}

let get_entry t (eid : Types.entry_id) =
  match Entry_tbl.find_opt t.entries eid with
  | Some e -> e
  | None ->
      let e = Vts.create ~ng:t.ng ~gid:eid.gid ~seq:eid.seq in
      Entry_tbl.replace t.entries eid e;
      e

let create ~ng ~on_execute =
  if ng < 1 then invalid_arg "Orderer.create: need at least one group";
  let t =
    {
      ng;
      on_execute;
      entries = Entry_tbl.create 256;
      heads = [||];
      last_ts = Array.make ng 0;
      active = Array.make ng true;
      executed = 0;
      executing = false;
    }
  in
  let t = { t with heads = Array.make ng (Vts.create ~ng ~gid:0 ~seq:1) } in
  for i = 0 to ng - 1 do
    t.heads.(i) <- get_entry t { Types.gid = i; seq = 1 }
  done;
  t

(* GlobalMinimum, lines 16-20: the head that provably precedes every
   other head. *)
let global_minimum t =
  let rec find i =
    if i >= t.ng then None
    else if not t.active.(i) then find (i + 1)
    else
      let e1 = t.heads.(i) in
      let wins = ref true in
      for j = 0 to t.ng - 1 do
        if j <> i && t.active.(j) && not (Vts.prec e1 t.heads.(j)) then
          wins := false
      done;
      if !wins then Some e1 else find (i + 1)
  in
  find 0

(* Lines 8-15: execute minima until none is decidable. *)
let drain t =
  if not t.executing then begin
    t.executing <- true;
    let continue = ref true in
    while !continue do
      match global_minimum t with
      | None -> continue := false
      | Some pre ->
          let pre_id = { Types.gid = pre.Vts.gid; seq = pre.Vts.seq } in
          t.executed <- t.executed + 1;
          (* Free the executed entry's record; its successor inherits
             the inferred bounds below. *)
          Entry_tbl.remove t.entries pre_id;
          let nxt = get_entry t { Types.gid = pre_id.gid; seq = pre_id.seq + 1 } in
          t.heads.(pre_id.gid) <- nxt;
          (* Lines 13-15: bound the successor's unknown elements by the
             predecessor's values (timestamps are non-decreasing). *)
          for j = 0 to t.ng - 1 do
            Vts.infer_element nxt j pre.Vts.vts.(j)
          done;
          t.on_execute pre_id
    done;
    t.executing <- false
  end

let on_timestamp t ~from_gid ~eid ~ts =
  if from_gid < 0 || from_gid >= t.ng then
    invalid_arg "Orderer.on_timestamp: bad group id";
  if eid.Types.gid = from_gid then
    invalid_arg "Orderer.on_timestamp: the proposer's element is implicit";
  if ts < t.last_ts.(from_gid) then
    invalid_arg
      (Printf.sprintf
         "Orderer.on_timestamp: stream from group %d went backwards (%d < %d)"
         from_gid ts t.last_ts.(from_gid));
  t.last_ts.(from_gid) <- ts;
  (* Executed entries may receive late (re-delivered) timestamps; their
     records are gone and the information is obsolete — but the stream
     bound must still advance the heads' inferred elements. *)
  let head_gid_seq = t.heads.(eid.Types.gid).Vts.seq in
  if eid.Types.seq >= head_gid_seq then begin
    let e = get_entry t eid in
    Vts.set_element e from_gid ts
  end;
  (* Lines 6-7: the stream bound applies to every head. *)
  for i = 0 to t.ng - 1 do
    Vts.infer_element t.heads.(i) from_gid ts
  done;
  drain t

let executed_count t = t.executed

let head_of t i =
  if i < 0 || i >= t.ng then invalid_arg "Orderer.head_of: bad group id";
  { Types.gid = t.heads.(i).Vts.gid; seq = t.heads.(i).Vts.seq }

let head_vts t i =
  if i < 0 || i >= t.ng then invalid_arg "Orderer.head_vts: bad group id";
  t.heads.(i)

(* ------------------------------------------------------------------ *)
(* Membership reconfiguration support                                  *)
(* ------------------------------------------------------------------ *)

(* Flip a group's participation. Deactivation removes a constraint, so
   the drain loop re-runs (entries blocked only on the departed group's
   head become decidable); activation adds a candidate whose head must
   already sit at the group's next unexecuted sequence (nothing here
   moves it). Every orderer instance must flip at the same position in
   the order — the controller does so inside the epoch-boundary entry's
   on_execute, i.e. when the entry is emitted, not when it later
   executes (under a backlog the orderer would by then have emitted
   later entries under the old mask). The re-entrant [drain] call is
   absorbed by the guard and the outer loop re-evaluates the minimum
   with the new mask. *)
let set_active t i b =
  if i < 0 || i >= t.ng then invalid_arg "Orderer.set_active: bad group id";
  t.active.(i) <- b;
  drain t

let copy_vts (v : Vts.t) =
  { v with Vts.vts = Array.copy v.Vts.vts; set = Array.copy v.Vts.set }

(* State transfer onto a joining leader's fresh orderer: adopt the
   donor's exact ordering state (pending VTSs, heads, stream bounds,
   mask) at the swap instant, so feeding both the same subsequent
   streams yields the same suffix — the agreement property extended
   across the join. *)
let copy_state ~src ~into =
  if src.ng <> into.ng then
    invalid_arg "Orderer.copy_state: group count mismatch";
  Entry_tbl.reset into.entries;
  Entry_tbl.iter
    (fun eid v -> Entry_tbl.replace into.entries eid (copy_vts v))
    src.entries;
  for i = 0 to src.ng - 1 do
    let h = src.heads.(i) in
    into.heads.(i) <-
      (match
         Entry_tbl.find_opt into.entries { Types.gid = h.Vts.gid; seq = h.Vts.seq }
       with
      | Some v -> v
      | None ->
          let v = copy_vts h in
          Entry_tbl.replace into.entries { Types.gid = h.Vts.gid; seq = h.Vts.seq } v;
          v);
    into.last_ts.(i) <- src.last_ts.(i);
    into.active.(i) <- src.active.(i)
  done;
  into.executed <- src.executed
