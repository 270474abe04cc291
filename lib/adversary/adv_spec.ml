(* The adversary-strategy DSL: typed Byzantine strategies with a stable
   one-line text form, mirroring Fault_spec. A plan travels as readable
   lines (a CI artifact, a `massbft run --adversary FILE` input, a
   shrunk reproducer) and parses back into exactly the same attack. *)

module Topology = Massbft_sim.Topology
module T = Massbft_sim.Timed_line

(* Who misbehaves. [Leader gid] is adaptive: it resolves to whichever
   node currently holds the group's acting-leader role at each send, so
   the attack follows view changes and leader migrations. *)
type target = Node of Topology.addr | Leader of int

type strategy =
  | Equivocate of { target : target; for_s : float }
      (* conflicting PBFT pre-prepares/votes to different peers *)
  | Equivocate_raft of { target : target; for_s : float }
      (* conflicting global Raft append payloads to different groups *)
  | Withhold of { target : target; for_s : float }
      (* serve pre-prepares to a quorum-minus-one subset only *)
  | Split_votes of { target : target; for_s : float }
      (* fork view-change votes across two target views *)
  | Replay of { target : target; copies : int; gap_s : float; for_s : float }
      (* re-emit valid control messages [copies] extra times *)
  | Delay_valid of { target : target; add_s : float; for_s : float }
      (* hold valid control messages back before emitting them *)
  | Tamper of { target : target; for_s : float }
      (* corrupt outgoing replication chunks (the paper's §VI-E attack) *)

type event = { at : float; strategy : strategy }
type plan = event list

(* Stable snake_case labels for metrics and trace spans. *)
let kind_name = function
  | Equivocate _ -> "equivocate"
  | Equivocate_raft _ -> "equivocate_raft"
  | Withhold _ -> "withhold"
  | Split_votes _ -> "split_votes"
  | Replay _ -> "replay"
  | Delay_valid _ -> "delay_valid"
  | Tamper _ -> "tamper"

(* Dashed text-form tokens — the vocabulary of `drill --adversary`. *)
let kind_names =
  [
    "equivocate";
    "equivocate-raft";
    "withhold";
    "split-votes";
    "replay";
    "delay-valid";
    "tamper";
  ]

let target_of = function
  | Equivocate { target; _ }
  | Equivocate_raft { target; _ }
  | Withhold { target; _ }
  | Split_votes { target; _ }
  | Replay { target; _ }
  | Delay_valid { target; _ }
  | Tamper { target; _ } ->
      target

let window_of = function
  | Equivocate { for_s; _ }
  | Equivocate_raft { for_s; _ }
  | Withhold { for_s; _ }
  | Split_votes { for_s; _ }
  | Replay { for_s; _ }
  | Delay_valid { for_s; _ }
  | Tamper { for_s; _ } ->
      for_s

let target_to_string = function
  | Node a -> "node:" ^ Topology.addr_to_string a
  | Leader g -> Printf.sprintf "leader:g%d" g

let strategy_to_string s =
  let args =
    match s with
    | Replay { copies; gap_s; _ } ->
        Printf.sprintf " copies %d gap %s" copies (T.fl gap_s)
    | Delay_valid { add_s; _ } -> " add " ^ T.fl add_s
    | Equivocate _ | Equivocate_raft _ | Withhold _ | Split_votes _
    | Tamper _ ->
        ""
  in
  Printf.sprintf "%s %s%s for %s"
    (T.item_name (kind_name s))
    (target_to_string (target_of s))
    args
    (T.fl (window_of s))

let event_to_string { at; strategy } = T.line at (strategy_to_string strategy)
let to_string plan = T.write event_to_string plan

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_target s =
  let prefixed p =
    if
      String.length s > String.length p
      && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match prefixed "leader:" with
  | Some rest -> Leader (T.gid rest)
  | None -> (
      match prefixed "node:" with
      | Some rest -> Node (T.addr rest)
      | None -> T.fail "bad target %S (expected leader:gN or node:gG/nN)" s)

let strategy_of_tokens = function
  | [] -> T.fail "empty strategy"
  | it :: args -> (
      let windowed keys = T.args it parse_target ("for" :: keys) args in
      let dur kw = T.float "duration" (kw "for") in
      match it with
      | "equivocate" | "equivocate-raft" | "withhold" | "split-votes"
      | "tamper" -> (
          let target, kw = windowed [] in
          let for_s = dur kw in
          match it with
          | "equivocate" -> Equivocate { target; for_s }
          | "equivocate-raft" -> Equivocate_raft { target; for_s }
          | "withhold" -> Withhold { target; for_s }
          | "split-votes" -> Split_votes { target; for_s }
          | _ -> Tamper { target; for_s })
      | "replay" ->
          let target, kw = windowed [ "copies"; "gap" ] in
          Replay
            {
              target;
              copies = T.int "copies" (kw "copies");
              gap_s = T.float "gap" (kw "gap");
              for_s = dur kw;
            }
      | "delay-valid" ->
          let target, kw = windowed [ "add" ] in
          Delay_valid
            { target; add_s = T.float "delay" (kw "add"); for_s = dur kw }
      | _ -> T.fail "unknown strategy %S" it)

let of_string text =
  T.read (fun at toks -> { at; strategy = strategy_of_tokens toks }) text

(* ------------------------------------------------------------------ *)
(* Validation and plan queries                                         *)
(* ------------------------------------------------------------------ *)

let validate ~(group_sizes : int array) plan =
  let ( >>= ) = T.( >>= ) in
  let check_target what = function
    | Leader g -> T.check_group what ~ng:(Array.length group_sizes) g
    | Node a -> T.check_addr what ~group_sizes a
  in
  let check_strategy s =
    let what = kind_name s in
    check_target what (target_of s) >>= fun () ->
    T.check_window what (window_of s) >>= fun () ->
    match s with
    | Replay { copies; gap_s; _ } ->
        if copies < 1 then Error "replay: copies must be >= 1"
        else if gap_s <= 0.0 || not (Float.is_finite gap_s) then
          Error "replay: gap must be positive"
        else Ok ()
    | Delay_valid { add_s; _ } ->
        if add_s <= 0.0 || not (Float.is_finite add_s) then
          Error "delay-valid: add must be positive"
        else Ok ()
    | Equivocate _ | Equivocate_raft _ | Withhold _ | Split_votes _
    | Tamper _ ->
        Ok ()
  in
  T.all
    (fun { at; strategy } ->
      T.check_time (kind_name strategy) at >>= fun () -> check_strategy strategy)
    plan

(* Every strategy is windowed, so a plan always heals: the adversary
   stops interfering when its last window closes. *)
let heal_time plan =
  List.fold_left
    (fun acc { at; strategy } -> Float.max acc (at +. window_of strategy))
    0.0 plan

let sorted plan = T.sorted (fun e -> e.at) plan
