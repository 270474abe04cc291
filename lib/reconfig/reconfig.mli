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
    joiner's clone, key ranges) runs when each leader executes it.
    Events apply one at a time in plan order, so the plan's walk
    resolves each event's target exactly. An empty plan arms nothing:
    the run is byte-identical to one without the reconfiguration
    subsystem. *)

module Engine = Massbft.Engine
module Spec = Reconfig_spec

(** The state-transfer receipt recorded when a join activates; [j_cmd]
    is the plan event's text form. *)
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

val arm : Engine.t -> Spec.provisioned -> t
(** Arm a provisioned plan on a not-yet-started engine that was created
    from its [p_spec]. Installs the membership masks, crashes the dark
    slots, installs the engine's [reconfig_order]/[reconfig_apply] seams
    and schedules one trigger per resolved event at its time. A trigger
    whose predecessor's boundary has not been applied yet waits and
    runs at that apply, so [@TIME] means "not before". An empty plan
    changes nothing. *)

val joins : t -> join_report list
val transfer_retries : t -> int
val epochs : t -> int
(** Epoch boundaries executed so far. *)

val final_violations : t -> (string * string) list
(** End-of-run epoch-aware checks as (check, detail) pairs: boundary
    agreement across leaders, the on-chain config record, join-time
    ledger equality with the clone source, and post-join chain agreement
    between the joined group and the coordinator. Empty means clean. *)
