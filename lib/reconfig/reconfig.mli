(** The live-membership reconfiguration controller (DESIGN.md §15).

    A {!Reconfig_spec} plan is armed on an engine created from the
    plan's {!Reconfig_spec.provision}ed topology: future slots exist
    from the start but stay dark — crashed and masked out of every
    quorum — until their epoch. Each plan event powers the hardware up,
    catches it up by a rate-limited chunked state transfer (capped
    backoff, donor rotation), then orders the command through global
    consensus as a zero-transaction epoch-boundary entry. Membership
    switches where each leader's ordering stage places that entry into
    its execution order, so every group applies the flip at the same
    position in the total order; the execution-side work (resizes, the
    joiner's clone, key ranges) runs when each leader executes it. An
    empty plan arms nothing: the run is byte-identical to one
    without the reconfiguration subsystem. *)

module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module Types = Massbft.Types
module Spec = Reconfig_spec

(** One leader's application of one epoch boundary; [b_pos] is that
    leader's executed-entry count at the flip, so agreement on
    (cmd, pos) per boundary is "every group switched at the same
    sequence number". *)
type boundary = {
  b_eid : Types.entry_id;
  b_cmd : string;
  b_gid : int;
  b_pos : int;
  b_at : float;
}

(** The state-transfer receipt recorded when a join activates. *)
type join_report = {
  j_cmd : string;
  j_gid : int;
  j_donor : int;
  j_bytes : int;
  j_chunks : int;
  j_retries : int;
  j_started : float;
  j_activated : float;
  j_height : int;
  j_src_height : int;
  j_head : string;
  j_src_head : string;
}

type t

val arm : Engine.t -> provisioned:Spec.provisioned -> Spec.plan -> t
(** Arm the plan on a not-yet-started engine that was created from
    [provisioned.p_spec]. Installs the membership masks, crashes the
    dark slots, installs the engine's [reconfig_order]/[reconfig_apply]
    seams and schedules the plan's triggers. An empty plan changes
    nothing. *)

val boundaries : t -> boundary list
(** Every (leader, boundary) application, oldest first. *)

val joins : t -> join_report list
val transfer_retries : t -> int
val epochs : t -> int
(** Epoch boundaries executed so far. *)

val final_violations : t -> (string * string) list
(** End-of-run epoch-aware checks as (check, detail) pairs: boundary
    agreement across leaders, the on-chain config record, join-time
    ledger equality with the clone source, and post-join chain agreement
    between the joined group and the coordinator. Empty means clean. *)
