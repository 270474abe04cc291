(* The Byzantine adversary engine: compiles an Adv_spec plan into a
   message-level interposer on the engine's typed send path
   (Node_ctx.adv_hook, installed via Engine.set_adversary).

   Where the fault injector's topology hook sees only message sizes —
   so it can drop, delay or duplicate but never lie — this hook sees
   the typed protocol message and rewrites it per destination: forged
   digests, per-peer forks (equivocation), withheld pre-prepares,
   split view-change votes, replayed and delayed-but-valid messages,
   tampered chunks. Targets may be adaptive ([Leader g] re-resolves at
   every send to the group's current acting leader, following view
   changes).

   Every attributable message a compromised node emits is recorded in
   an Evidence.log under that node's derived key, so an equivocation
   that later violates safety is provable by a conflicting signed pair
   — not just observable.

   With an empty plan, [arm] installs no hook and schedules nothing:
   the run is bit-identical to one without an adversary attached. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module N = Massbft.Node_ctx
module Types = Massbft.Types
module Pbft = Massbft_consensus.Pbft
module Raft = Massbft_consensus.Raft
module Trace = Massbft_trace.Trace
module Registry = Massbft_obs.Registry
module Intmath = Massbft_util.Intmath
module A = Adv_spec

type t = {
  sim : Sim.t;
  engine : Engine.t;
  plan : A.plan;
  trace : Trace.t;
  registry : Registry.t option;
  evidence : Evidence.log;
  kind_counters : (string, Registry.counter) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;
      (* every node that ever matched an active strategy's target: the
         run's compromised set, consulted by the invariant checkers *)
  mutable active : A.strategy list;  (* activation order *)
  mutable injected : int;
  mutable armed : bool;
}

let create ?(trace = Trace.null) ?registry ?evidence ~spec ~plan engine sim =
  (match A.validate ~group_sizes:spec.Topology.group_sizes plan with
  | Ok () -> ()
  | Error e -> invalid_arg ("Adversary.create: " ^ e));
  {
    sim;
    engine;
    plan = A.sorted plan;
    trace;
    registry;
    evidence = (match evidence with Some l -> l | None -> Evidence.create_log ());
    kind_counters = Hashtbl.create 11;
    seen = Hashtbl.create 8;
    active = [];
    injected = 0;
    armed = false;
  }

let plan t = t.plan
let injected_total t = t.injected
let evidence t = t.evidence

let is_compromised t (a : Topology.addr) =
  Hashtbl.mem t.seen (Topology.addr_to_string a)

(* Adversary interferences land in the same counter family as fault
   injections, distinguished by the [strategy] label (fault events
   carry strategy="fault"). *)
let count_injection t strategy =
  t.injected <- t.injected + 1;
  match t.registry with
  | None -> ()
  | Some reg ->
      let kind = A.kind_name strategy in
      let c =
        match Hashtbl.find_opt t.kind_counters kind with
        | Some c -> c
        | None ->
            let c =
              Registry.counter reg ~name:"massbft_faults_injected_total"
                ~help:"Fault events applied by the chaos injector"
                [ ("kind", "adversary"); ("strategy", kind) ]
            in
            Hashtbl.replace t.kind_counters kind c;
            c
      in
      Registry.inc c

(* ------------------------------------------------------------------ *)
(* Strategy transforms                                                 *)
(* ------------------------------------------------------------------ *)

(* Equivocation forks the group on destination parity: odd-numbered
   receivers get the forged claim, even-numbered ones the canonical
   claim. Stripping any existing forge prefix first makes colluding
   compromised nodes consistent by construction — both halves each see
   one coherent value backed by every compromised voter. *)
let forge_prefix = "equiv!"

let canonical_digest d =
  let p = String.length forge_prefix in
  if String.length d >= p && String.sub d 0 p = forge_prefix then
    String.sub d p (String.length d - p)
  else d

let forked_digest ~(dst : Topology.addr) d =
  let d0 = canonical_digest d in
  if dst.Topology.n land 1 = 1 then forge_prefix ^ d0 else d0

let tamper_prefix = "tampered:"

let tampered_tag tag =
  let p = String.length tamper_prefix in
  if String.length tag >= p && String.sub tag 0 p = tamper_prefix then tag
  else tamper_prefix ^ tag

let one m = Some [ { N.adv_msg = m; adv_delay_s = 0.0 } ]

(* [Some ds] claims the message for this strategy (possibly unchanged);
   [None] lets the next active strategy, or the untouched path, take
   it. *)
let transform t strategy ~(src : Topology.addr) ~(dst : Topology.addr) ~bulk m
    =
  match strategy with
  | A.Equivocate _ -> (
      match m with
      | N.Local (Pbft.Pre_prepare { view; seq; digest }) ->
          let d' = forked_digest ~dst digest in
          if not (String.equal d' digest) then count_injection t strategy;
          one (N.Local (Pbft.Pre_prepare { view; seq; digest = d' }))
      | N.Local (Pbft.Prepare { view; seq; digest }) ->
          let d' = forked_digest ~dst digest in
          if not (String.equal d' digest) then count_injection t strategy;
          one (N.Local (Pbft.Prepare { view; seq; digest = d' }))
      | N.Local (Pbft.Commit { view; seq; digest }) ->
          let d' = forked_digest ~dst digest in
          if not (String.equal d' digest) then count_injection t strategy;
          one (N.Local (Pbft.Commit { view; seq; digest = d' }))
      | _ -> None)
  | A.Equivocate_raft _ -> (
      match m with
      | N.Raft_m { inst; rmsg = Raft.Append { term; index; entry = _ } }
        when dst.Topology.g land 1 = 1 ->
          (* The forged half of the receiver groups is told the slot
             holds a Noop — a payload fork Raft's crash-only model has
             no defense against. *)
          count_injection t strategy;
          one
            (N.Raft_m
               { inst; rmsg = Raft.Append { term; index; entry = N.Noop } })
      | _ -> None)
  | A.Withhold _ -> (
      match m with
      | N.Local (Pbft.Pre_prepare _) ->
          (* The quorum and the peers are the group's active slots, the
             prefix [0, n): a dark spare or a retired slot holds no vote. *)
          let n = N.active_size (Engine.ctx t.engine) src.Topology.g in
          let quorum = Intmath.pbft_quorum n in
          (* Serve only the first quorum-2 peers: with the sender that
             makes quorum-1 holders, one short of a commit quorum. *)
          let rec served budget id =
            if budget <= 0 || id >= n then false
            else if id = src.Topology.n then served budget (id + 1)
            else if id = dst.Topology.n then true
            else served (budget - 1) (id + 1)
          in
          if served (max 0 (quorum - 2)) 0 then one m
          else begin
            count_injection t strategy;
            Some []
          end
      | _ -> None)
  | A.Split_votes _ -> (
      match m with
      | N.Local (Pbft.View_change { new_view; prepared })
        when dst.Topology.n land 1 = 1 ->
          count_injection t strategy;
          one (N.Local (Pbft.View_change { new_view = new_view + 1; prepared }))
      | _ -> None)
  | A.Replay { copies; gap_s; _ } ->
      if bulk then None
      else begin
        count_injection t strategy;
        Some
          ({ N.adv_msg = m; adv_delay_s = 0.0 }
          :: List.init copies (fun i ->
                 {
                   N.adv_msg = m;
                   adv_delay_s = gap_s *. float_of_int (i + 1);
                 }))
      end
  | A.Delay_valid { add_s; _ } ->
      if bulk then None
      else begin
        count_injection t strategy;
        Some [ { N.adv_msg = m; adv_delay_s = add_s } ]
      end
  | A.Tamper _ -> (
      match m with
      | N.Chunk { eid; root_tag; index } ->
          let tag = tampered_tag root_tag in
          if not (String.equal tag root_tag) then count_injection t strategy;
          one (N.Chunk { eid; root_tag = tag; index })
      | N.Chunk_fwd { eid; root_tag; index } ->
          let tag = tampered_tag root_tag in
          if not (String.equal tag root_tag) then count_injection t strategy;
          one (N.Chunk_fwd { eid; root_tag = tag; index })
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Evidence recording                                                  *)
(* ------------------------------------------------------------------ *)

let rpayload_claim = function
  | N.Entry_meta { eid } -> "meta:" ^ Types.entry_id_to_string eid
  | N.Ts { eid; ts } ->
      Printf.sprintf "ts:%s=%d" (Types.entry_id_to_string eid) ts
  | N.Noop -> "noop"

(* Record the attributable consensus claims a compromised node emits —
   the messages that, in a deployment, would carry its signature. Both
   halves of an equivocation pass through here (one hook call per
   destination), so a fork becomes a conflict pair in the log. *)
let record_evidence t ~(src : Topology.addr) m =
  let signer = Topology.addr_to_string src in
  let obs = Evidence.observe t.evidence ~signer in
  match m with
  | N.Local (Pbft.Pre_prepare { view; seq; digest }) ->
      obs ~kind:"pbft-pre-prepare" ~gid:src.Topology.g ~seq
        ~slot:("v" ^ string_of_int view) ~claim:digest
  | N.Local (Pbft.Prepare { view; seq; digest }) ->
      obs ~kind:"pbft-prepare" ~gid:src.Topology.g ~seq
        ~slot:("v" ^ string_of_int view) ~claim:digest
  | N.Local (Pbft.Commit { view; seq; digest }) ->
      obs ~kind:"pbft-commit" ~gid:src.Topology.g ~seq
        ~slot:("v" ^ string_of_int view) ~claim:digest
  | N.Raft_m { inst; rmsg = Raft.Append { term; index; entry } } ->
      obs ~kind:"raft-append" ~gid:inst ~seq:index
        ~slot:("t" ^ string_of_int term) ~claim:(rpayload_claim entry)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The hook                                                            *)
(* ------------------------------------------------------------------ *)

let resolves t target (src : Topology.addr) =
  match target with
  | A.Node a -> Topology.addr_equal a src
  | A.Leader g ->
      g = src.Topology.g
      && Topology.addr_equal (Engine.acting_leader t.engine ~gid:g) src

let hook t : N.adv_hook =
 fun ~src ~dst ~bulk ~bytes:_ m ->
  match List.filter (fun s -> resolves t (A.target_of s) src) t.active with
  | [] -> None
  | acts ->
      Hashtbl.replace t.seen (Topology.addr_to_string src) ();
      (* First active strategy that claims the message wins; the rest
         see nothing (strategies do not stack on one message). *)
      let rec apply = function
        | [] -> None
        | s :: rest -> (
            match transform t s ~src ~dst ~bulk m with
            | Some _ as r -> r
            | None -> apply rest)
      in
      let result = apply acts in
      (* Evidence covers what was actually emitted — the compromised
         node signs what it sends, including untouched messages. *)
      (match result with
      | None -> record_evidence t ~src m
      | Some ds -> List.iter (fun d -> record_evidence t ~src d.N.adv_msg) ds);
      result

(* ------------------------------------------------------------------ *)
(* Arming                                                              *)
(* ------------------------------------------------------------------ *)

let remove_first_phys lst x =
  let rec go = function
    | [] -> []
    | y :: rest -> if y == x then rest else y :: go rest
  in
  go lst

let arm t =
  if t.armed then invalid_arg "Adversary.arm: already armed";
  t.armed <- true;
  if t.plan <> [] then begin
    Engine.set_adversary t.engine (Some (hook t));
    (* Active misbehavior can stall PBFT slots without any crash; the
       per-group progress watchdogs drive the recovery view changes. *)
    Engine.arm_watchdogs t.engine;
    List.iter
      (fun { A.at; strategy } ->
        Sim.at t.sim
          (Float.max at (Sim.now t.sim))
          (fun () ->
            let span =
              Trace.span_begin t.trace ~cat:"adversary"
                (A.kind_name strategy)
                ~args:
                  [ ("spec", Trace.Str (A.strategy_to_string strategy)) ]
            in
            t.active <- t.active @ [ strategy ];
            Sim.after t.sim (A.window_of strategy) (fun () ->
                t.active <- remove_first_phys t.active strategy;
                Trace.span_end t.trace span)))
      t.plan
  end
