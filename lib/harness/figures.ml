module Topology = Massbft_sim.Topology
module Config = Massbft.Config
module W = Massbft_workload.Workload
module Transfer_plan = Massbft.Transfer_plan
module Chunker = Massbft.Chunker
module Types = Massbft.Types
module Fault_spec = Massbft_faults.Fault_spec
module Deployment = Massbft_faults.Deployment
module Adv_spec = Massbft_adversary.Adv_spec

type cell = { name : string; value : float; paper : float option }
type row = { label : string; cells : cell list }

type figure = { id : string; title : string; expectation : string; rows : row list }

let c ?paper name value = { name; value; paper }

(* Utilization cells come from a per-run sampler (fig13a / fig14): the
   hottest leader's mean busy fraction makes the binding resource
   visible right in the table. *)
let fresh_sampler () =
  Massbft_obs.Sampler.create (Massbft_obs.Registry.create ())

let hottest = List.fold_left Float.max 0.0

(* Window lengths: every run needs the pipeline/NIC queues to fill
   before measuring; the slow systems (Steward) have multi-second time
   constants. *)
let windows ~quick = if quick then (2.0, 5.0) else (5.0, 12.0)

let base_cfg ?(quick = false) ~system ~workload () =
  {
    (Config.default ~system ~workload ()) with
    Config.workload_scale = (if quick then 0.01 else 1.0);
  }

let run ?(quick = false) ?obs ?on_start ~spec ~cfg () =
  let warmup, duration = windows ~quick in
  Runner.run ~warmup ~duration ?obs ?on_start ~spec ~cfg ()

let probe ?(quick = false) ?on_start ~spec ~cfg () =
  let warmup, duration = windows ~quick in
  Runner.run ~warmup ~duration:(duration /. 2.0) ?on_start ~spec
    ~cfg:(Runner.latency_probe cfg) ()

(* ------------------------------------------------------------------ *)
(* Fig 1b: GeoBFT throughput vs group size                             *)
(* ------------------------------------------------------------------ *)

let fig1b ?(quick = false) () =
  let sizes = if quick then [ 4; 7; 10 ] else [ 4; 7; 10; 13; 16; 19 ] in
  let rows =
    List.map
      (fun n ->
        let cfg = base_cfg ~quick ~system:Config.Geobft ~workload:W.Ycsb_a () in
        let spec = Clusters.nationwide ~nodes_per_group:n () in
        let r = run ~quick ~spec ~cfg () in
        {
          label = Printf.sprintf "%d nodes/group" n;
          cells = [ c "throughput_ktps" r.Runner.throughput_ktps ];
        })
      sizes
  in
  {
    id = "fig1b";
    title = "GeoBFT throughput under growing group sizes (motivation)";
    expectation =
      "throughput decreases monotonically with group size: the leader must \
       ship f+1 copies per group and its uplink saturates";
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Fig 8 / Fig 9: the main performance matrix                          *)
(* ------------------------------------------------------------------ *)

(* Approximate values read off the paper's bar charts (nationwide);
   exact anchors where the text states them. *)
let paper_tput_nationwide system workload =
  match (system, workload) with
  | Config.Massbft, W.Ycsb_a -> Some 35.0
  | Config.Baseline, W.Ycsb_a -> Some 6.4
  | Config.Geobft, W.Ycsb_a -> Some 7.0
  | Config.Steward, W.Ycsb_a -> Some 1.5
  | Config.Iss, W.Ycsb_a -> Some 5.0
  | Config.Massbft, W.Tpcc -> Some 14.0
  | Config.Baseline, W.Tpcc -> Some 2.5
  | _ -> None

let paper_latency_nationwide system workload =
  match (system, workload) with
  | Config.Massbft, W.Ycsb_a -> Some 128.0
  | Config.Baseline, W.Ycsb_a -> Some 119.0
  | Config.Geobft, W.Ycsb_a -> Some 68.0
  | _ -> None

let perf_matrix ?(quick = false) ~id ~title ~spec ~paper_tput ~paper_lat () =
  let systems =
    [ Config.Massbft; Config.Baseline; Config.Geobft; Config.Steward; Config.Iss ]
  in
  let workloads =
    if quick then [ W.Ycsb_a ] else [ W.Ycsb_a; W.Ycsb_b; W.Smallbank; W.Tpcc ]
  in
  let rows =
    List.concat_map
      (fun workload ->
        List.map
          (fun system ->
            let cfg = base_cfg ~quick ~system ~workload () in
            let r = run ~quick ~spec ~cfg () in
            let l = probe ~quick ~spec ~cfg () in
            {
              label =
                Printf.sprintf "%-9s %-9s" (Config.system_name system)
                  (W.kind_name workload);
              cells =
                [
                  c "throughput_ktps" ?paper:(paper_tput system workload)
                    r.Runner.throughput_ktps;
                  c "latency_ms" ?paper:(paper_lat system workload)
                    l.Runner.mean_latency_ms;
                  c "commit_ratio" r.Runner.commit_ratio;
                ];
            })
          systems)
      workloads
  in
  {
    id;
    title;
    expectation =
      "MassBFT leads every workload by 5x-30x over the one-way leader \
       systems; Steward is slowest (single proposer); GeoBFT has the lowest \
       latency (0.5 RTT broadcast), MassBFT's latency is slightly above \
       Baseline's (+0.5 RTT for overlapped VTS assignment)";
    rows;
  }

let fig8 ?(quick = false) () =
  perf_matrix ~quick ~id:"fig8"
    ~title:"Nationwide cluster: throughput and latency (5 systems x 4 workloads)"
    ~spec:(Clusters.nationwide ())
    ~paper_tput:paper_tput_nationwide ~paper_lat:paper_latency_nationwide ()

let fig9 ?(quick = false) () =
  perf_matrix ~quick ~id:"fig9"
    ~title:"Worldwide cluster: throughput and latency (5 systems x 4 workloads)"
    ~spec:(Clusters.worldwide ())
    ~paper_tput:(fun _ _ -> None)
    ~paper_lat:(fun _ _ -> None)
    ()

(* ------------------------------------------------------------------ *)
(* Fig 10: WAN bytes to replicate one entry                            *)
(* ------------------------------------------------------------------ *)

let fig10 ?(quick = false) () =
  ignore quick;
  (* Computed from the same modules the engine uses: chunk wire sizes
     from the transfer plan and Merkle proofs, versus Baseline's f+1
     full copies with certificate. 7-node groups as in the evaluation
     cluster. *)
  let n = 7 in
  let plan = Transfer_plan.generate ~n1:n ~n2:n in
  let f = Massbft_util.Intmath.pbft_f n in
  let rows =
    List.map
      (fun batch ->
        let entry_len = Types.header_bytes + (batch * W.avg_wire_size W.Ycsb_a) in
        let massbft =
          Chunker.total_wire_bytes ~plan ~entry_len
          + Types.raft_meta_bytes ~n
        in
        let baseline = (f + 1) * (entry_len + Types.certificate_bytes ~n) in
        {
          label = Printf.sprintf "%4d txns (%6d B entry)" batch entry_len;
          cells =
            [
              c "massbft_kb" (float_of_int massbft /. 1024.0);
              c "baseline_kb" (float_of_int baseline /. 1024.0);
              c "ratio"
                (float_of_int baseline /. float_of_int (max 1 massbft));
            ];
        })
      [ 50; 100; 200; 400; 800 ]
  in
  {
    id = "fig10";
    title = "WAN traffic to replicate one entry to a remote 7-node group";
    expectation =
      "MassBFT sends ~n_total/n_data = 2.33 entry-equivalents vs Baseline's \
       f+1 = 3 copies; the Merkle-proof and certificate overhead is \
       negligible for realistic batches, so the ratio approaches 3/2.33";
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Fig 11: latency breakdown                                           *)
(* ------------------------------------------------------------------ *)

let fig11 ?(quick = false) () =
  (* Full-size batches (so coding costs are representative) at a shallow
     pipeline (so queueing does not drown the phase shares) — the
     operating point the paper's breakdown describes. *)
  let cfg =
    { (base_cfg ~quick ~system:Config.Massbft ~workload:W.Ycsb_a ()) with
      Config.pipeline = 2 }
  in
  let r = run ~quick ~spec:(Clusters.nationwide ()) ~cfg () in
  let rows =
    List.map
      (fun (name, ms) ->
        {
          label = name;
          cells =
            [ c "ms" ms ?paper:(if name = "coding" then Some 2.3 else None) ];
        })
      r.Runner.phases_ms
  in
  {
    id = "fig11";
    title = "MassBFT latency breakdown (YCSB-A, nationwide)";
    expectation =
      "global replication dominates (cross-datacenter RTTs); encoding plus \
       rebuild is ~2.3 ms; local consensus is visible because every node \
       verifies every transaction signature";
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Fig 12: heterogeneous group sizes                                   *)
(* ------------------------------------------------------------------ *)

let fig12 ?(quick = false) () =
  let spec = Clusters.nationwide ~group_sizes:[| 4; 7; 7 |] () in
  let rows =
    List.concat_map
      (fun system ->
        let cfg = base_cfg ~quick ~system ~workload:W.Ycsb_a () in
        let r = run ~quick ~spec ~cfg () in
        let l = probe ~quick ~spec ~cfg () in
        [
          {
            label = Config.system_name system;
            cells =
              (List.mapi
                 (fun g t -> c (Printf.sprintf "g%d_ktps" g) t)
                 r.Runner.per_group_ktps
              @ [
                  c "total_ktps" r.Runner.throughput_ktps;
                  c "latency_ms" l.Runner.mean_latency_ms;
                ]);
          };
        ])
      [ Config.Baseline; Config.Br; Config.Ebr; Config.Massbft ]
  in
  {
    id = "fig12";
    title = "Different-sized groups (G1=4 nodes, G2=G3=7): ablation";
    expectation =
      "BR > Baseline (decentralized sending); EBR adds erasure coding but \
       the synchronous rounds cap every group at the slowest (G1's) rate; \
       MassBFT (EBR + async ordering) lets the 7-node groups outrun G1 and \
       wins overall";
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Fig 13: scalability                                                 *)
(* ------------------------------------------------------------------ *)

let fig13a ?(quick = false) () =
  let sizes = if quick then [ 4; 10 ] else [ 4; 7; 10; 16; 25; 40 ] in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun system ->
            (* MassBFT gets large batches so the 20 ms batch cadence is
               never its ceiling (shorter windows keep the 40x3-node
               simulations tractable); Baseline's giant f+1 copies need
               longer windows to reach steady state at all. *)
            let cfg, (warmup, duration) =
              match system with
              | Config.Massbft ->
                  ( { (base_cfg ~quick ~system ~workload:W.Ycsb_a ()) with
                      Config.max_batch = 1000 },
                    if quick then (2.0, 4.0) else (3.0, 6.0) )
              | _ ->
                  ( base_cfg ~quick ~system ~workload:W.Ycsb_a (),
                    if quick then (2.0, 5.0) else (6.0, 14.0) )
            in
            let spec = Clusters.nationwide ~nodes_per_group:n () in
            let obs = fresh_sampler () in
            let r = Runner.run ~warmup ~duration ~obs ~spec ~cfg () in
            {
              label = Printf.sprintf "%-8s %2d nodes/group" (Config.system_name system) n;
              cells =
                [
                  c "throughput_ktps" r.Runner.throughput_ktps;
                  c "leader_wan_busy" (hottest r.Runner.leader_wan_busy);
                  c "leader_cpu_util" (hottest r.Runner.leader_cpu_util);
                ];
            })
          [ Config.Massbft; Config.Baseline ])
      sizes
  in
  {
    id = "fig13a";
    title = "Scaling nodes per group (YCSB-A, nationwide)";
    expectation =
      "Baseline decreases with group size (leader sends f+1 copies); \
       MassBFT grows with aggregate group bandwidth and then plateaus once \
       per-node transaction signature verification saturates the 8 cores";
    rows;
  }

let fig13b ?(quick = false) () =
  let group_counts = if quick then [ 3; 5 ] else [ 3; 4; 5; 6; 7 ] in
  let paper system groups =
    match (system, groups) with
    | Config.Massbft, 3 -> Some 57.20
    | Config.Massbft, 7 -> Some 42.30
    | Config.Baseline, 3 -> Some 6.36
    | Config.Baseline, 7 -> Some 3.97
    | _ -> None
  in
  let rows =
    List.concat_map
      (fun groups ->
        List.map
          (fun system ->
            let cfg = base_cfg ~quick ~system ~workload:W.Ycsb_a () in
            let spec = Clusters.nationwide ~groups () in
            let r = run ~quick ~spec ~cfg () in
            {
              label = Printf.sprintf "%-8s %d groups" (Config.system_name system) groups;
              cells =
                [
                  c "throughput_ktps" ?paper:(paper system groups)
                    r.Runner.throughput_ktps;
                ];
            })
          [ Config.Massbft; Config.Baseline ])
      group_counts
  in
  {
    id = "fig13b";
    title = "Scaling the number of groups (YCSB-A, 7 nodes per group)";
    expectation =
      "both systems lose throughput as groups are added (global Raft does \
       not scale), but MassBFT degrades more gently (paper: -26.0% vs \
       -37.6% from 3 to 7 groups)";
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Fig 14: mixed node bandwidths                                       *)
(* ------------------------------------------------------------------ *)

let fig14 ?(quick = false) () =
  let slow_counts = if quick then [ 0; 4 ] else [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let rows =
    List.map
      (fun slow ->
        (* Large batches so that WAN bandwidth — not the 20 ms batch
           cadence — is the binding resource at 40 Mbps. *)
        let cfg =
          { (base_cfg ~quick ~system:Config.Massbft ~workload:W.Ycsb_a ()) with
            Config.max_batch = 1500 }
        in
        let spec =
          { (Clusters.nationwide ()) with Topology.wan_bps = 40e6 }
        in
        let degrade (d : Deployment.t) =
          for g = 0 to 2 do
            for k = 1 to slow do
              (* Degrade the highest-numbered nodes, keeping leaders fast. *)
              Topology.set_wan_bandwidth d.Deployment.topo
                { Topology.g; n = 7 - k } 20e6
            done
          done
        in
        let obs = fresh_sampler () in
        let r = run ~quick ~obs ~on_start:degrade ~spec ~cfg () in
        let l = probe ~quick ~on_start:degrade ~spec ~cfg () in
        {
          label = Printf.sprintf "%d slow nodes/group" slow;
          cells =
            [
              c "throughput_ktps" r.Runner.throughput_ktps;
              c "latency_ms" l.Runner.mean_latency_ms;
              c "leader_wan_busy" (hottest r.Runner.leader_wan_busy);
              c "leader_cpu_util" (hottest r.Runner.leader_cpu_util);
            ];
        })
      slow_counts
  in
  {
    id = "fig14";
    title = "Nodes with mixed bandwidth (40 Mbps base, 20 Mbps slow nodes)";
    expectation =
      "throughput holds while slow nodes can be treated like the faulty \
       budget; past ~4 slow nodes of 7 the transfer plan must route through \
       them and throughput steps down (paper: -36.9%)";
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Fig 15: fault-tolerance time series                                 *)
(* ------------------------------------------------------------------ *)

let fig15 ?(quick = false) () =
  let crash_at = if quick then 12.0 else 40.0 in
  let byz_at = if quick then 7.0 else 20.0 in
  let until = if quick then 20.0 else 60.0 in
  let cfg = base_cfg ~quick ~system:Config.Massbft ~workload:W.Ycsb_a () in
  let spec = Clusters.nationwide () in
  (* Two colluding chunk tamperers per 7-node group (f = 2), the last
     two slots, hostile from [byz_at] to the end of the run. *)
  let tamper g n =
    {
      Adv_spec.at = byz_at;
      strategy =
        Adv_spec.Tamper
          { target = Adv_spec.Node { Topology.g; n }; for_s = until -. byz_at };
    }
  in
  let res =
    Runner.run ~warmup:0.0 ~duration:until
      ~faults:[ { Fault_spec.at = crash_at; fault = Fault_spec.Crash_group 0 } ]
      ~adversary:
        (List.concat
           (List.init (Array.length spec.Topology.group_sizes) (fun g ->
                [ tamper g 5; tamper g 6 ])))
      ~spec ~cfg ()
  in
  let lat_at t =
    match List.assoc_opt t res.Runner.latency_series with
    | Some v -> v *. 1000.0
    | None -> 0.0
  in
  let rows =
    List.map
      (fun (t, r) ->
        let marker =
          if t >= crash_at && t < crash_at +. 1.0 then " <- group 0 crashes"
          else if t >= byz_at && t < byz_at +. 1.0 then " <- byzantine nodes activate"
          else ""
        in
        {
          label = Printf.sprintf "t=%5.1fs%s" t marker;
          cells = [ c "ktps" (r /. 1000.0); c "latency_ms" (lat_at t) ];
        })
      res.Runner.rate_series
  in
  {
    id = "fig15";
    title =
      "Fault tolerance over time: 2 Byzantine nodes/group collude from t1; \
       group 0 crashes at t2";
    expectation =
      "tampered chunks are bucketed and blacklisted, so throughput is flat \
       through the Byzantine phase (small latency bump); the group crash \
       stalls ordering until the takeover election, after which throughput \
       settles at ~2/3 (the crashed group no longer proposes)";
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)
(* ------------------------------------------------------------------ *)

let ablations ?(quick = false) () =
  let spec = Clusters.nationwide () in
  let base = base_cfg ~quick ~system:Config.Massbft ~workload:W.Ycsb_a () in
  (* (a) Overlapped vs serial VTS assignment: the Figure 7a/7b choice;
     the serial variant costs one extra WAN round-trip of latency. *)
  let lat cfg = (probe ~quick ~spec ~cfg ()).Runner.mean_latency_ms in
  let lat_overlapped = lat base in
  let lat_serial = lat { base with Config.overlapped_vts = false } in
  (* (b) Aria deterministic reordering: rescues read-after-write-only
     conflicts; visible in the commit ratio under a skewed workload. *)
  let ratio cfg = (run ~quick ~spec ~cfg ()).Runner.commit_ratio in
  let contended =
    { base with Config.workload_scale = (if quick then 0.001 else 0.01) }
  in
  let ratio_reorder = ratio contended in
  let ratio_plain = ratio { contended with Config.reorder = false } in
  {
    id = "ablations";
    title = "Design-choice ablations (MassBFT, YCSB-A, nationwide)";
    expectation =
      "serial (two-phase) VTS assignment costs roughly one extra WAN RTT of \
       latency over the overlapped scheme (SV-B); disabling Aria's \
       deterministic reordering lowers the first-try commit ratio under \
       contention";
    rows =
      [
        {
          label = "vts assignment latency (ms)";
          cells =
            [ c "overlapped" lat_overlapped; c "serial_2phase" lat_serial ];
        };
        {
          label = "aria first-try commit ratio";
          cells = [ c "reordering_on" ratio_reorder; c "reordering_off" ratio_plain ];
        };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Tables I and II                                                     *)
(* ------------------------------------------------------------------ *)

(* Table II as configured: each row reads the system's three axes from
   [Config], the same functions [Engine.create] reads them by. *)
let tables () =
  let repl = function
    | Config.Leader_oneway -> "one-way (leader)"
    | Config.Bijective_full -> "bijective (full)"
    | Config.Encoded_bijective -> "encoded bijective"
  in
  let global = function
    | Config.Single_raft -> "single Raft"
    | Config.Per_group_raft -> "per-group Raft"
    | Config.Direct_broadcast -> "broadcast"
  in
  let order = function
    | Config.Global_log -> "global log"
    | Config.Epoch_rounds -> "sync epochs"
    | Config.Sync_rounds -> "sync rounds"
    | Config.Async_vts -> "async VTS"
  in
  let feature sys =
    let r = Config.replication_of sys in
    {
      label =
        Printf.sprintf "%-9s  repl=%-18s global=%-15s order=%-12s coding=%s"
          (Config.system_name sys) (repl r)
          (global (Config.global_of sys))
          (order (Config.ordering_of sys))
          (if r = Config.Encoded_bijective then "erasure-coded"
           else "entire block");
      cells = [];
    }
  in
  {
    id = "tables";
    title = "Tables I/II: systems implemented in this engine";
    expectation = "feature matrix as configured by Config.system";
    rows =
      List.map feature
        Config.[ Steward; Iss; Geobft; Baseline; Br; Ebr; Massbft ];
  }

let all =
  [
    ("fig1b", "GeoBFT throughput vs group size (motivation)", fig1b);
    ("fig8", "nationwide cluster performance matrix", fig8);
    ("fig9", "worldwide cluster performance matrix", fig9);
    ("fig10", "WAN traffic per replicated entry", fig10);
    ("fig11", "MassBFT latency breakdown", fig11);
    ("fig12", "heterogeneous group sizes ablation", fig12);
    ("fig13a", "scaling nodes per group", fig13a);
    ("fig13b", "scaling the number of groups", fig13b);
    ("fig14", "mixed node bandwidths", fig14);
    ("fig15", "fault-tolerance time series", fig15);
    ("ablations", "overlapped-VTS and Aria-reordering ablations", ablations);
    ("tables", "Tables I/II feature matrix", fun ?quick () -> ignore quick; tables ());
  ]

let pp_figure fmt f =
  Format.fprintf fmt "=== %s: %s@." f.id f.title;
  Format.fprintf fmt "expectation: %s@." f.expectation;
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-32s" r.label;
      List.iter
        (fun cell ->
          match cell.paper with
          | Some p ->
              Format.fprintf fmt "  %s=%.2f (paper ~%.2f)" cell.name cell.value p
          | None -> Format.fprintf fmt "  %s=%.2f" cell.name cell.value)
        r.cells;
      Format.fprintf fmt "@.")
    f.rows;
  Format.fprintf fmt "@."
