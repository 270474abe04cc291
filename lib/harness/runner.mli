(** One-experiment runner: builds a deployment from a config, runs
    warm-up and measurement windows, and extracts the numbers the
    figures report. *)

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
  ?on_start:(Massbft_faults.Deployment.t -> unit) ->
  ?faults:Massbft_faults.Fault_spec.schedule ->
  ?adversary:Massbft_adversary.Adv_spec.plan ->
  ?reconfig:Massbft_reconfig.Reconfig_spec.plan ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  unit ->
  result
(** Defaults: 4 s warm-up, 12 s measurement. The cluster is built and
    started by {!Massbft_faults.Deployment}, the same calls the chaos
    fuzzer makes: the runner wires its sampler between
    {!Massbft_faults.Deployment.build} and
    {!Massbft_faults.Deployment.start}, then calls [on_start], then
    schedules the warm-up cutoff.

    [trace] observes the whole run, warm-up included. [obs] must be a
    fresh, unattached sampler: the runner registers the fabric probes
    and the engine's stage instruments, attaches it, and resets its rows
    at the warm-up cutoff so the utilization fields and saturation
    analysis cover only the measurement window. [on_start] receives the
    started deployment before the clock moves: the hook for
    experiment-specific setup (bandwidth degradation, extra checkers)
    and for reading the reconfiguration controller after the run.
    [faults], [adversary] and [reconfig] are armed as
    {!Massbft_faults.Deployment.build} documents; their times are
    absolute simulated seconds, so events meant for the measurement
    window must land after [warmup]. With [prof], the run is driven by
    {!Massbft_prof.Prof.run} instead of [Sim.run], so its report covers
    exactly the scheduler's own execution.

    All of these compose, in any combination. Omitting any of them (or
    passing an empty schedule or plan) schedules nothing: the run is
    bit-identical to a build without that feature. *)

val latency_probe : Massbft.Config.t -> Massbft.Config.t
(** The same system with small batches (40 txns) and a shallow pipeline
    (2): pass the result to {!run} for the near-unloaded operating point
    whose mean latency corresponds to the latencies the paper reports
    next to peak throughput. *)

val pp_result : Format.formatter -> result -> unit
