(* The four named workloads. Every one runs MassBFT on the paper's
   nationwide 3x7 cluster (26.7-43.4 ms inter-group RTT, 20 Mbps WAN and
   2.5 Gbps LAN per node) with closed-loop, saturated in-simulator
   clients: each group keeps [pipeline] entries in flight and forms a
   batch of up to [max_batch] txns every 20 ms. The seed is the
   workload's only input; everything else is fixed here. See NOTES.md
   for why each workload exists. *)

module Config = Massbft.Config
module W = Massbft_workload.Workload
module Fault_spec = Massbft_faults.Fault_spec

type t = {
  name : string;
  kind : W.kind;
  scale : float;  (** keyspace scale; 1.0 is the paper's full size *)
  max_batch : int;
  pipeline : int;
  warmup : float;  (** simulated seconds before the measurement window *)
  duration : float;  (** simulated seconds measured *)
  faults : Fault_spec.schedule;
  ref_every : float;
      (** simulated seconds between reference slices; dense enough
          that slices land every few tens of host milliseconds *)
  tail_pct : float;
      (** the reported tail percentile: the highest one that keeps at
          least ten latency samples beyond it on every seed *)
  setup_reps : int;  (** back-to-back cluster constructions timed *)
}

let saturated =
  {
    name = "";
    kind = W.Ycsb_a;
    scale = 1.0;
    max_batch = 500;
    pipeline = 8;
    warmup = 4.0;
    duration = 12.0;
    faults = [];
    ref_every = 0.05;
    tail_pct = 99.0;
    setup_reps = 7;
  }

let all =
  [
    { saturated with name = "ycsb-a" };
    (* Runner.run_latency_probe's operating point. *)
    {
      saturated with
      name = "ycsb-a-probe";
      max_batch = 40;
      pipeline = 2;
      warmup = 2.0;
      duration = 30.0;
      ref_every = 0.1;
    };
    {
      saturated with
      name = "tpcc";
      kind = W.Tpcc;
      warmup = 1.0;
      duration = 2.0;
      ref_every = 0.005;
      tail_pct = 90.0;
      setup_reps = 25;
    };
    {
      saturated with
      name = "fault-recovery";
      tail_pct = 95.0;
      ref_every = 0.1;
      faults =
        Fault_spec.of_string "@6 crash-node g1/n0\n@8 crash-group g2\n@11 recover-group g2\n";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all

let spec () = Massbft_harness.Clusters.nationwide ()

let config w ~seed =
  {
    (Config.default ~system:Config.Massbft ~workload:w.kind ()) with
    Config.workload_scale = w.scale;
    max_batch = w.max_batch;
    pipeline = w.pipeline;
    seed = Int64.of_int seed;
  }

(* A small variant for the benchmark's own tests: the same layers and
   fault schedule shape on a 1% keyspace, batches of at most 100 txns
   and a quarter of the simulated time. That leaves too few entries for
   a high tail percentile. *)
let short w =
  let q = 0.25 in
  {
    w with
    scale = 0.01;
    max_batch = min w.max_batch 100;
    tail_pct = 50.0;
    warmup = w.warmup *. q;
    duration = w.duration *. q;
    faults =
      List.map
        (fun (e : Fault_spec.event) -> { e with Fault_spec.at = e.Fault_spec.at *. q })
        w.faults;
    setup_reps = 1;
  }
