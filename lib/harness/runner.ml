module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module Config = Massbft.Config
module Metrics = Massbft.Metrics
module Stats = Massbft_util.Stats
module Sampler = Massbft_obs.Sampler
module Saturation = Massbft_obs.Saturation
module Deployment = Massbft_faults.Deployment
module Prof = Massbft_prof.Prof

type result = {
  system : Config.system;
  workload : Massbft_workload.Workload.kind;
  throughput_ktps : float;
  mean_latency_ms : float;
  p99_latency_ms : float;
  commit_ratio : float;
  committed_txns : int;
  entries_executed : int;
  wan_mb : float;
  lan_mb : float;
  wan_mb_per_entry : float;
  rate_series : (float * float) list;
  latency_series : (float * float) list;
  phases_ms : (string * float) list;
  per_group_ktps : float list;
  leader_wan_busy : float list;
  leader_cpu_util : float list;
  binding_resource : string option;
}

let run ?(duration = 12.0) ?(warmup = 4.0) ?trace ?obs ?prof ?on_start ?faults
    ?adversary ?reconfig ~spec ~cfg () =
  let d =
    Deployment.build ?trace
      ?registry:(Option.map Sampler.registry obs)
      ?faults ?adversary ?reconfig ~spec ~cfg ()
  in
  let { Deployment.sim; topo; engine; _ } = d in
  (* With no sampler, nothing below schedules a single event: the run
     is bit-identical to one without observability. The sampler's
     first tick lands after the controller's plan triggers and before
     the engine's first timers. *)
  (match obs with
  | Some s ->
      Sampler.watch_sim s sim;
      Sampler.watch_topology s topo;
      Engine.set_obs engine s;
      Sampler.attach s sim
  | None -> ());
  Deployment.start d;
  Engine.set_measure_from engine warmup;
  Option.iter (fun f -> f d) on_start;
  Sim.at sim warmup (fun () ->
      Topology.reset_traffic_baseline topo;
      (* Saturation shares cover only the measurement window. *)
      match obs with Some s -> Sampler.reset s | None -> ());
  (* The host profiler drives the run in slices; it schedules no events
     and reads no sim state, so it composes with every run mode. *)
  let until = warmup +. duration in
  (match prof with
  | Some p -> Prof.run p sim ~until
  | None -> Sim.run sim ~until);
  let m = Engine.metrics engine in
  let entries = Stats.Counter.get m.Metrics.entries_executed in
  let wan_mb = float_of_int (Engine.wan_bytes engine) /. 1e6 in
  let leader_wan_busy, leader_cpu_util, binding_resource =
    match obs with
    | None -> ([], [], None)
    | Some s ->
        let per_leader name extra =
          List.init (Topology.n_groups topo) (fun g ->
              let labels =
                [ ("group", string_of_int g); ("node", "0") ] @ extra
              in
              Option.value ~default:0.0 (Sampler.column_mean s ~name ~labels))
        in
        ( per_leader "massbft_nic_busy_fraction"
            [ ("link", "wan_up"); ("class", "bulk") ],
          per_leader "massbft_cpu_utilization" [],
          Option.map
            (fun (v : Saturation.verdict) -> v.Saturation.resource)
            (Saturation.binding s) )
  in
  {
    system = cfg.Config.system;
    workload = cfg.Config.workload;
    throughput_ktps = Metrics.throughput_tps m ~duration /. 1000.0;
    mean_latency_ms = Metrics.mean_latency_ms m;
    p99_latency_ms = Metrics.p99_latency_ms m;
    commit_ratio = Metrics.commit_ratio m;
    committed_txns = Stats.Counter.get m.Metrics.committed_txns;
    entries_executed = entries;
    wan_mb;
    lan_mb = float_of_int (Engine.lan_bytes engine) /. 1e6;
    wan_mb_per_entry = (if entries = 0 then 0.0 else wan_mb /. float_of_int entries);
    rate_series = Stats.Timeseries.rate_series m.Metrics.txn_rate;
    per_group_ktps =
      List.init (Topology.n_groups topo) (fun g ->
          float_of_int (Metrics.group_committed m g) /. duration /. 1000.0);
    latency_series = Stats.Timeseries.mean_series m.Metrics.latency_ts;
    phases_ms =
      [
        ("batching", 1000.0 *. Stats.Summary.mean m.Metrics.phase_batch_s);
        ("local_consensus", 1000.0 *. Stats.Summary.mean m.Metrics.phase_local_s);
        ("coding", 1000.0 *. Stats.Summary.mean m.Metrics.phase_coding_s);
        ("global_replication", 1000.0 *. Stats.Summary.mean m.Metrics.phase_global_s);
        ("ordering", 1000.0 *. Stats.Summary.mean m.Metrics.phase_order_s);
        ("execution", 1000.0 *. Stats.Summary.mean m.Metrics.phase_exec_s);
      ];
    leader_wan_busy;
    leader_cpu_util;
    binding_resource;
  }

(* The light-load operating point for latency reporting: small batches
   and a shallow pipeline, approximating the near-unloaded points at
   which the paper reports its latencies (e.g. GeoBFT's 68 ms is
   essentially the bare pipeline latency). Throughput numbers always
   come from a saturated run. *)
let latency_probe cfg = { cfg with Config.max_batch = 40; pipeline = 2 }

let pp_result fmt r =
  Format.fprintf fmt
    "%-9s %-9s  %8.2f ktps  lat %7.1f ms (p99 %7.1f)  commit %.3f  wan %8.2f MB  entries %d"
    (Config.system_name r.system)
    (Massbft_workload.Workload.kind_name r.workload)
    r.throughput_ktps r.mean_latency_ms r.p99_latency_ms r.commit_ratio r.wan_mb
    r.entries_executed
