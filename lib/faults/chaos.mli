(** Seeded chaos fuzzer: random fault-schedule generation, campaign
    driving, and delta-debugging shrink of failing schedules.

    Everything is deterministic in the seed: the same seed against the
    same config and cluster spec generates a byte-identical schedule and
    a result-identical run, so a campaign failure is reproducible as
    [massbft drill --seed S --system SYS] (see {!repro_line}).

    The generator is system-aware: group crashes, WAN drops and
    partitions are only drawn for systems whose global phase retransmits
    (per-group Raft); it crashes at most f nodes per group and heals
    every fault it injects, so a generated schedule is always within the
    system's claimed fault tolerance and any invariant violation is a
    real bug. *)

val gen_schedule :
  Massbft_util.Rng.t ->
  cfg:Massbft.Config.t ->
  spec:Massbft_sim.Topology.spec ->
  duration:float ->
  Fault_spec.schedule
(** Draw a schedule of 2–6 faults landing in [0.5, 0.4*duration], all
    healed within a few seconds after. Times are millisecond-quantized
    so the text form round-trips exactly. *)

val gen_adversary :
  Massbft_util.Rng.t ->
  cfg:Massbft.Config.t ->
  spec:Massbft_sim.Topology.spec ->
  duration:float ->
  strategy:string ->
  Massbft_adversary.Adv_spec.plan * Fault_spec.schedule
(** Draw a concrete timed plan for one named strategy (a member of
    {!Massbft_adversary.Adv_spec.kind_names}), plus any trigger faults
    the strategy needs to bite (split-votes rides on a leader
    crash+recover). Plans compromise exactly one node per target group —
    within every group's tolerance — so a safety violation under a
    generated plan is a real bug. Raises [Invalid_argument] on an
    unknown strategy name. *)

val reconfig_kinds : string list
(** The reconfiguration campaign axis: ["node-join"], ["node-leave"],
    ["leader-move"], ["group-add"], ["group-remove"]. *)

val gen_reconfig :
  Massbft_util.Rng.t ->
  cfg:Massbft.Config.t ->
  spec:Massbft_sim.Topology.spec ->
  duration:float ->
  kind:string ->
  Massbft_reconfig.Reconfig_spec.plan * Fault_spec.schedule
(** Draw one membership-change scenario of the named kind plus its
    paired chaos: joins get a 50% chance of a mid-transfer crash of the
    joining hardware (exercising the fetch lane's stall watchdog, donor
    rotation and backoff), other kinds get light degradations. Fault
    addresses may refer to slots of the plan's *provisioned* topology;
    {!run_schedule} provisions before arming the injector. Raises
    [Invalid_argument] on an unknown kind, or when the cluster cannot
    host the scenario (node-leave needs a group of 5, group-remove
    needs 3 groups). *)

type outcome = {
  schedule : Fault_spec.schedule;
  adversary : Massbft_adversary.Adv_spec.plan;
  reconfig : Massbft_reconfig.Reconfig_spec.plan;
  violations : Invariants.violation list;
  unaccountable : Invariants.violation list;
      (** violations not backed by a verified conflicting-signed pair
          (without an adversary: all of them) *)
  evidence : Massbft_adversary.Evidence.pair list;
      (** every conflict the accountability log caught, violations or
          not *)
  executed : int;  (** entries executed across all groups *)
  injected : int;  (** fault events applied *)
  adv_injected : int;  (** messages the adversary interfered with *)
  epochs : int;  (** reconfiguration boundaries executed *)
  transfer_retries : int;  (** state-transfer stall recoveries *)
  ran_until : float;  (** simulated seconds *)
}

val run_schedule :
  ?duration:float ->
  ?liveness_bound_s:float ->
  ?trace:Massbft_trace.Trace.t ->
  ?registry:Massbft_obs.Registry.t ->
  ?adversary:Massbft_adversary.Adv_spec.plan ->
  ?reconfig:Massbft_reconfig.Reconfig_spec.plan ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  Fault_spec.schedule ->
  outcome
(** Build and start a fresh {!Deployment}, attach the invariant
    checkers ({!Deployment.invariants}) after arming, and run for
    [duration] (default 10.0) simulated seconds — extended past
    {!Deployment.heal_time} when needed so the liveness watchdog gets a
    verdict. [liveness_bound_s] defaults to
    [max 3.0 (4 * election_timeout_s)]: post-heal recovery from a group
    outage legitimately spans several election timeouts (takeover,
    catch-up, transfer-back). [violations] include the reconfiguration
    controller's end-of-run checks ({!Deployment.violations}). *)

val failed : outcome -> bool

val accountable : outcome -> bool
(** No unaccountable violations: the run either upheld every invariant
    or pinned each violation on a provably-equivocating node via a
    verified conflicting-signed-message pair. The CI pass criterion for
    adversary campaigns. *)

val shrink : fails:('a list -> bool) -> 'a list -> 'a list
(** ddmin: a 1-minimal-ish sub-list still satisfying [fails] (dropping
    any tried chunk makes it pass). Returns the input unchanged if it
    does not fail. Works over fault schedules and adversary plans
    alike. *)

type drill_result = {
  seed : int64;
  system : Massbft.Config.system;
  strategy : string option;  (** adversary axis point, if any *)
  reconfig_kind : string option;  (** reconfiguration axis point, if any *)
  outcome : outcome;
  shrunk : Fault_spec.schedule option;
      (** minimal failing schedule, when the original failed *)
  shrunk_adversary : Massbft_adversary.Adv_spec.plan option;
      (** minimal failing adversary plan, when one was in play *)
}

val drill :
  ?duration:float ->
  ?liveness_bound_s:float ->
  ?trace:Massbft_trace.Trace.t ->
  ?registry:Massbft_obs.Registry.t ->
  ?shrink_failures:bool ->
  ?adversary:string ->
  ?reconfig:string ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  seed:int64 ->
  unit ->
  drill_result
(** One fuzzing round: generate from [seed], run, and (by default)
    shrink on failure. With [adversary] (a strategy name) the round
    runs that strategy's generated plan plus its trigger faults instead
    of a random fault schedule; on failure both the plan and the
    schedule are ddmin-shrunk. With [reconfig] (a member of
    {!reconfig_kinds}) the round runs that membership-change scenario
    plus its paired chaos; the reconfiguration plan itself is the
    scenario's identity and is never shrunk. Both together drill
    Byzantine behaviour during a membership change. *)

type campaign_result = {
  total : int;
  results : drill_result list;  (** in run order *)
  failures : drill_result list;
}

val campaign :
  ?duration:float ->
  ?liveness_bound_s:float ->
  ?trace:Massbft_trace.Trace.t ->
  ?shrink_failures:bool ->
  ?systems:Massbft.Config.system list ->
  ?adversaries:string list ->
  ?reconfigs:string list ->
  ?on_run:(drill_result -> unit) ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  seeds:int64 list ->
  unit ->
  campaign_result
(** Every system (default: all seven) times every seed — times every
    [adversaries] strategy and every [reconfigs] kind when those axes
    are given, overriding [cfg]'s system per run, in that nesting order
    (systems outermost, seeds innermost). [trace] is shared by every
    run's first (unshrunk) pass. [shrink_failures] defaults to false
    here — campaigns report; {!drill} reproduces and shrinks. *)

val repro_line :
  ?adversary:string ->
  ?reconfig:string ->
  seed:int64 ->
  system:Massbft.Config.system ->
  unit ->
  string
(** The one-liner that reproduces a campaign failure, carrying every
    axis the failing run used ([--reconfig], [--adversary]). *)

val pp_drill : Format.formatter -> drill_result -> unit
