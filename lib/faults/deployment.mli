(** The one cluster builder: {!Massbft_harness.Runner.run},
    {!Chaos.run_schedule}, the golden fixtures and the fault examples
    all build and start their deployment here, so the construction
    order — part of a run's identity, since equal-time events fire in
    insertion order — is decided once (DESIGN.md §11):
    + {!build}, which schedules only the reconfiguration controller's
      plan triggers;
    + whatever the caller wires before [Engine.start] (the runner's
      sampler);
    + {!start}: [Engine.start], then the injector, then the adversary;
    + the caller's own events (the fuzzer's checkers, the runner's
      warm-up cutoff), then the clock. *)

type t = {
  sim : Massbft_sim.Sim.t;
  topo : Massbft_sim.Topology.t;
  engine : Massbft.Engine.t;
  controller : Massbft_reconfig.Reconfig.t;
  injector : Injector.t;  (** over the (possibly empty) fault schedule *)
  adversary : Massbft_adversary.Adversary.t option;
      (** [None] exactly when the plan is empty *)
  reconfig : Massbft_reconfig.Reconfig_spec.plan;
}

val build :
  ?trace:Massbft_trace.Trace.t ->
  ?registry:Massbft_obs.Registry.t ->
  ?faults:Fault_spec.schedule ->
  ?adversary:Massbft_adversary.Adv_spec.plan ->
  ?reconfig:Massbft_reconfig.Reconfig_spec.plan ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  unit ->
  t
(** Compacts the heap; validates and provisions the reconfiguration
    plan (fault and adversary addresses may name provisioned slots);
    creates one sim shard per provisioned group with the WAN lookahead,
    the topology and the engine; attaches [trace]; arms the controller;
    creates the injector and the adversary, which receive [trace] and
    [registry]. Empty or omitted scenarios arm nothing, and the run is
    bit-identical to one without them. Raises [Invalid_argument] on an
    invalid plan or schedule. *)

val start : t -> unit
(** [Engine.start], then [Injector.arm], then [Adversary.arm]. Call
    once, before the clock moves. *)

val heal_time : t -> float
(** The latest of the fault schedule's {!Fault_spec.heal_time}, the
    adversary plan's close, and the last reconfiguration command plus
    its allowance: 6 s of state transfer when the plan adds a node or a
    group, 1.5 s otherwise. *)

val invariants :
  ?liveness_bound_s:float -> ?heal_by:float -> t -> Invariants.t
(** {!Invariants.create} with [heal_by] defaulting to {!heal_time} and,
    under an adversary, its compromised set and evidence log. Schedules
    nothing. *)

val violations : t -> Invariants.t -> Invariants.violation list
(** The checkers' violations, then the controller's end-of-run checks
    ({!Massbft_reconfig.Reconfig.final_violations}) stamped now. Call
    after {!Invariants.finalize}. *)
