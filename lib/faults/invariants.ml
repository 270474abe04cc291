(* Safety invariant checkers: poll a running engine and record (or
   raise on) violations. Every check is a read-only view over engine
   state — attaching checkers never changes what a run commits — and
   every check is incremental, re-reading only growth since its last
   poll, so the polling cost stays flat as the run lengthens.

   Checks:
   - cross_chain: no two groups build different block hashes at the
     same global height (agreement on the merged ledger);
   - replica_prefix: within a group, no two PBFT replicas decide
     different digests at the same local sequence, and decided digests
     match the proposer's entry registry;
   - raft_monotone: every leader's view of every Raft instance's
     commit index only advances;
   - liveness: once every injected fault has healed ([heal_by]),
     executed entries must keep advancing within [liveness_bound_s]
     (a watchdog, not a safety property — reported once). *)

module Sim = Massbft_sim.Sim
module Engine = Massbft.Engine
module Types = Massbft.Types
module Topology = Massbft_sim.Topology
module Ledger = Massbft_exec.Ledger
module Evidence = Massbft_adversary.Evidence

type violation = {
  at : float;
  check : string;
  detail : string;
  evidence : Evidence.pair option;
      (* accountability: the conflicting signed messages proving which
         node caused this, when an adversary evidence log has one *)
}

let violation_to_string v =
  Printf.sprintf "[%.3fs] %s: %s%s" v.at v.check v.detail
    (match v.evidence with
    | None -> ""
    | Some p ->
        Printf.sprintf " [evidence: %s equivocated on %s g%d seq %d]"
          p.Evidence.first.Evidence.e_signer p.Evidence.first.Evidence.e_kind
          p.Evidence.first.Evidence.e_gid p.Evidence.first.Evidence.e_seq)

type t = {
  engine : Engine.t;
  sim : Sim.t;
  liveness_bound_s : float;
  heal_by : float;
  compromised : Topology.addr -> bool;
      (* under an adversary, safety is only promised among honest
         replicas — Byzantine nodes may decide anything *)
  evidence : Evidence.log option;
  mutable violations : violation list; (* newest first *)
  (* cross_chain: the reference hash chain (first group to reach a
     height defines it) and each group's checked-prefix cursor *)
  mutable ref_hashes : string array;
  mutable ref_len : int;
  cursors : int array;
  (* replica_prefix: per group, the longest prefix of local sequences
     every replica has decided (final in PBFT — never rescanned) *)
  agreed : int array;
  (* raft_monotone: last seen commit index per [gid][inst] *)
  last_commit : int array array;
  (* liveness *)
  mutable last_exec : int;
  mutable last_change : float;
  mutable live_flagged : bool;
  mutable checks_run : int;
}

let create ?(liveness_bound_s = 3.0) ?(heal_by = 0.0)
    ?(compromised = fun _ -> false) ?evidence engine sim =
  let ng = Engine.n_groups engine in
  {
    engine;
    sim;
    liveness_bound_s;
    heal_by;
    compromised;
    evidence;
    violations = [];
    ref_hashes = [||];
    ref_len = 0;
    cursors = Array.make ng 0;
    agreed = Array.make ng 0;
    last_commit =
      Array.make_matrix ng (max 1 (Engine.raft_instances engine)) 0;
    last_exec = 0;
    last_change = 0.0;
    live_flagged = false;
    checks_run = 0;
  }

let record ?evidence t check detail =
  let v = { at = Sim.now t.sim; check; detail; evidence } in
  t.violations <- v :: t.violations

(* The conflicting signed pair for a consensus slot, if the adversary's
   evidence log caught one — slot-exact when possible, else any
   conflict (an equivocation elsewhere can still poison derived state
   such as the merged chain). *)
let slot_evidence t ~gid ~seq =
  match t.evidence with
  | None -> None
  | Some log -> (
      match Evidence.conflict_for log ~gid ~seq with
      | Some _ as p -> p
      | None -> Evidence.first_conflict log)

let any_evidence t =
  match t.evidence with
  | None -> None
  | Some log -> Evidence.first_conflict log

let ensure_cap t n =
  if n > Array.length t.ref_hashes then begin
    let grown = Array.make (max 64 (2 * n)) "" in
    Array.blit t.ref_hashes 0 grown 0 t.ref_len;
    t.ref_hashes <- grown
  end

let check_cross_chain t =
  let ng = Engine.n_groups t.engine in
  for g = 0 to ng - 1 do
    let led = Engine.ledger_of t.engine ~gid:g in
    let fresh = Ledger.blocks_from led ~height:t.cursors.(g) in
    List.iteri
      (fun i (b : Ledger.block) ->
        let h = t.cursors.(g) + i in
        if h < t.ref_len then begin
          if not (String.equal b.Ledger.block_hash t.ref_hashes.(h)) then
            record
              ?evidence:(slot_evidence t ~gid:b.Ledger.gid ~seq:b.Ledger.seq)
              t "cross_chain"
              (Printf.sprintf
                 "group %d's block at height %d (g%d seq %d) differs from \
                  the chain first built at that height"
                 g h b.Ledger.gid b.Ledger.seq)
        end
        else begin
          ensure_cap t (h + 1);
          t.ref_hashes.(h) <- b.Ledger.block_hash;
          t.ref_len <- h + 1
        end)
      fresh;
    t.cursors.(g) <- Ledger.height led
  done

let check_replica_prefix t =
  let ng = Engine.n_groups t.engine in
  for g = 0 to ng - 1 do
    let n = Engine.group_size t.engine g in
    (* BFT safety is only promised among honest replicas: a Byzantine
       node may decide anything, and when the proposer itself may be
       compromised its entry registry is not an oracle either. *)
    let honest = Array.init n (fun i -> not (t.compromised { Topology.g; n = i })) in
    let n_honest = Array.fold_left (fun a h -> if h then a + 1 else a) 0 honest in
    let group_clean = n_honest = n in
    let top = Engine.proposed_seqs t.engine ~gid:g in
    let seq = ref (t.agreed.(g) + 1) in
    let advancing = ref true in
    while !seq <= top do
      let s = !seq in
      let expect = Engine.entry_digest t.engine { Types.gid = g; seq = s } in
      let decided = ref 0 in
      let first = ref None in
      for node = 0 to n - 1 do
        if honest.(node) then
          match Engine.replica_decided t.engine ~g ~n:node ~seq:s with
          | None -> ()
          | Some d -> (
              incr decided;
              (match expect with
              | Some ed when group_clean && not (String.equal d ed) ->
                  record ?evidence:(slot_evidence t ~gid:g ~seq:s) t
                    "replica_prefix"
                    (Printf.sprintf
                       "g%d/n%d decided seq %d with a digest differing from \
                        the proposer's entry"
                       g node s)
              | _ -> ());
              match !first with
              | None -> first := Some d
              | Some d0 ->
                  if not (String.equal d d0) then
                    record ?evidence:(slot_evidence t ~gid:g ~seq:s) t
                      "replica_prefix"
                      (Printf.sprintf
                         "two honest replicas of group %d decided different \
                          digests at seq %d"
                         g s))
      done;
      (* A sequence decided by every honest replica is final (PBFT
         decides each slot at most once): fold it into the checked
         prefix. *)
      if !advancing && !decided = n_honest && s = t.agreed.(g) + 1 then
        t.agreed.(g) <- s
      else advancing := false;
      incr seq
    done
  done

let check_raft_monotone t =
  let ng = Engine.n_groups t.engine in
  let insts = Engine.raft_instances t.engine in
  for g = 0 to ng - 1 do
    for inst = 0 to insts - 1 do
      let ci = Engine.raft_commit_index t.engine ~gid:g ~inst in
      if ci < t.last_commit.(g).(inst) then
        record t "raft_monotone"
          (Printf.sprintf
             "group %d's view of instance %d's commit index went backwards \
              (%d -> %d)"
             g inst
             t.last_commit.(g).(inst)
             ci);
      t.last_commit.(g).(inst) <- ci
    done
  done

let check_liveness t =
  let total = Engine.entries_executed_total t.engine in
  let now = Sim.now t.sim in
  if total <> t.last_exec then begin
    t.last_exec <- total;
    t.last_change <- now
  end
  else if
    (not t.live_flagged)
    && Float.is_finite t.heal_by
    && now >= t.heal_by
    && now -. Float.max t.last_change t.heal_by > t.liveness_bound_s
  then begin
    t.live_flagged <- true;
    record t "liveness"
      (Printf.sprintf
         "no entry executed for %.1fs after all faults healed (at %.1fs)"
         (now -. Float.max t.last_change t.heal_by)
         t.heal_by)
  end

let check_now t =
  t.checks_run <- t.checks_run + 1;
  check_cross_chain t;
  check_replica_prefix t;
  check_raft_monotone t;
  check_liveness t

let attach ?(period = 0.25) t =
  if period <= 0.0 then invalid_arg "Invariants.attach: period must be > 0";
  let rec tick () =
    Sim.after t.sim period (fun () ->
        check_now t;
        tick ())
  in
  tick ()

(* End-of-run check over final state: hash-chain integrity of every
   group's ledger. *)
let finalize t =
  check_now t;
  for g = 0 to Engine.n_groups t.engine - 1 do
    if not (Ledger.verify (Engine.ledger_of t.engine ~gid:g)) then
      record ?evidence:(any_evidence t) t "ledger_integrity"
        (Printf.sprintf "group %d's ledger fails hash-chain verification" g)
  done

let violations t = List.rev t.violations
let ok t = t.violations = []
let checks_run t = t.checks_run
