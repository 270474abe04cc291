(** Safety invariant checkers over a running engine.

    A checker polls read-only engine accessors — attaching one never
    changes what a run commits — and records violations of:

    - {b cross_chain}: no two groups build different block hashes at
      the same global ledger height;
    - {b replica_prefix}: no two PBFT replicas of a group decide
      different digests at the same local sequence number, and decided
      digests match the proposer's entry;
    - {b raft_monotone}: each leader's view of each global Raft
      instance's commit index never goes backwards;
    - {b liveness}: once every injected fault has healed, executed
      entries keep advancing within a bound (a watchdog — reported at
      most once per run);

    plus, at {!finalize}: per-group ledger hash-chain integrity. (The
    groups execute into one shared store, so there is no per-group
    database to compare; agreement is on the hash-chained ledgers.)

    Under an adversary ({!Massbft_adversary.Adversary}), pass the run's
    [compromised] predicate and [evidence] log: safety comparisons then
    cover honest replicas only (a Byzantine node may decide anything
    without breaking BFT's promise), and each safety violation carries
    the conflicting signed message pair proving which node caused it —
    machine-checkable accountability, in the style of BFT forensics. *)

type violation = {
  at : float;
  check : string;
  detail : string;
  evidence : Massbft_adversary.Evidence.pair option;
      (** the conflicting signed pair behind this violation, when the
          adversary's evidence log holds one (safety checks only —
          liveness violations have no equivocation to show) *)
}

exception Violation of violation
(** Raised by checks when [fail_fast] was set. *)

val violation_to_string : violation -> string

type t

val create :
  ?liveness_bound_s:float ->
  ?heal_by:float ->
  ?fail_fast:bool ->
  ?compromised:(Massbft_sim.Topology.addr -> bool) ->
  ?evidence:Massbft_adversary.Evidence.log ->
  Massbft.Engine.t ->
  Massbft_sim.Sim.t ->
  t
(** [liveness_bound_s] (default 3.0) is the maximum tolerated progress
    gap after [heal_by] (default 0.0 — pass
    [Fault_spec.heal_time schedule]; an infinite [heal_by], e.g. from a
    never-recovered crash, disables the liveness watchdog entirely).
    With [fail_fast] (default false) the first violation raises
    {!Violation} out of the simulation instead of only recording.

    [compromised] (default: nobody) marks Byzantine replicas: the
    replica-agreement check then compares honest replicas only, and the
    proposer-registry cross-check is skipped for groups containing a
    compromised node (the registry itself may be forged there).
    [evidence] is the adversary's accountability log; when given,
    safety violations carry its conflicting signed pair for the
    affected slot. *)

val attach : ?period:float -> t -> unit
(** Polls {!check_now} every [period] (default 0.25) simulated seconds
    for the rest of the run. *)

val check_now : t -> unit
(** One polling pass, incremental over the growth since the last. *)

val finalize : t -> unit
(** End-of-run pass: a last {!check_now} and ledger verification. Call
    after the simulation. *)

val violations : t -> violation list
(** Oldest first. *)

val ok : t -> bool

val checks_run : t -> int
(** Polling passes completed (diagnostics). *)
