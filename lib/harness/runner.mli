(** One-experiment runner: builds a simulator + topology + engine from a
    config, runs warm-up and measurement windows, and extracts the
    numbers the figures report. *)

type result = {
  system : Massbft.Config.system;
  workload : Massbft_workload.Workload.kind;
  throughput_ktps : float;  (** committed transactions per second / 1000 *)
  mean_latency_ms : float;
  p99_latency_ms : float;
  commit_ratio : float;  (** Aria committed / (committed + conflicted) *)
  committed_txns : int;  (** Aria-committed, cluster-wide, whole run *)
  entries_executed : int;
  wan_mb : float;  (** during the measurement window *)
  lan_mb : float;
  wan_mb_per_entry : float;
  rate_series : (float * float) list;  (** (second, committed tps) *)
  latency_series : (float * float) list;  (** (second, mean latency s) *)
  phases_ms : (string * float) list;  (** Figure 11 breakdown *)
  per_group_ktps : float list;  (** throughput split by proposing group *)
  leader_wan_busy : float list;
      (** per-group leader WAN-uplink bulk busy fraction, averaged over
          the measurement window; [[]] when no sampler was passed *)
  leader_cpu_util : float list;
      (** per-group leader CPU utilization, same window; [[]] without a
          sampler *)
  binding_resource : string option;
      (** {!Massbft_obs.Saturation.binding}'s verdict (e.g.
          ["g0/n0 wan_up"]); [None] without a sampler *)
}

val run :
  ?duration:float ->
  ?warmup:float ->
  ?trace:Massbft_trace.Trace.t ->
  ?obs:Massbft_obs.Sampler.t ->
  ?prof:Massbft_prof.Prof.t ->
  ?on_engine:(Massbft.Engine.t -> Massbft_sim.Sim.t -> Massbft_sim.Topology.t -> unit) ->
  ?faults:Massbft_faults.Fault_spec.schedule ->
  ?adversary:Massbft_adversary.Adv_spec.plan ->
  ?reconfig:Massbft_reconfig.Reconfig_spec.plan ->
  ?on_reconfig:(Massbft_reconfig.Reconfig.t -> unit) ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  unit ->
  result
(** Defaults: 4 s warm-up, 12 s measurement. [trace] is attached via
    {!Massbft.Engine.set_trace} before [Engine.start], so the sink
    observes the whole run including warm-up. [obs] must be a fresh,
    unattached sampler: the runner registers the fabric probes
    ({!Massbft_obs.Sampler.watch_topology}) and the engine's stage
    instruments ({!Massbft.Engine.set_obs}), attaches it, and resets
    its rows at the warm-up cutoff so saturation analysis covers only
    the measurement window; the utilization result fields are filled
    from it. Without [obs] nothing is scheduled and results are
    bit-identical to a build without observability. Tracing and
    metrics are independent — pass either, both, or neither.
    [on_engine] runs after [Engine.start] and before the clock moves —
    the hook for experiment-specific setup (bandwidth degradation,
    recovery schedules...). [faults] arms a
    {!Massbft_faults.Injector} over the schedule (times are absolute
    simulated seconds, so faults meant for the measurement window must
    land after [warmup]); omitting it — or passing [[]] — arms nothing
    and the run is bit-identical to a fault-free one. [adversary] arms
    a {!Massbft_adversary.Adversary} over the plan (same absolute-time
    and no-op contract as [faults]).

    [reconfig] validates and arms a live-membership plan
    ({!Massbft_reconfig.Reconfig}): the topology is expanded by
    {!Massbft_reconfig.Reconfig_spec.provision} before the cluster is
    built, the controller is armed before [Engine.start], and
    [on_reconfig] receives it (for epoch-aware checks and join
    receipts). An empty or omitted plan provisions and arms nothing —
    byte-identical to a build without the subsystem.

    Tracing, the sampler, faults, adversary plans and reconfiguration
    plans all compose: pass any combination.

    [prof] is a fresh, unattached {!Massbft_prof.Prof.t}: the runner
    attaches it before the clock moves and freezes its wall endpoint
    the moment the drive loop returns, so {!Massbft_prof.Prof.report}
    covers exactly the scheduler's own execution. Profiling hooks only
    slice boundaries — no events are scheduled and no simulation state
    is read — so results (and golden fixtures) are byte-identical with
    or without it. *)

val latency_probe : Massbft.Config.t -> Massbft.Config.t
(** The same system with small batches (40 txns) and a shallow pipeline
    (2): pass the result to {!run} for the near-unloaded operating point
    whose mean latency corresponds to the latencies the paper reports
    next to peak throughput. *)

val pp_result : Format.formatter -> result -> unit
