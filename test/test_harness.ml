(* Tests for the experiment harness: cluster topologies, the runner's
   accounting, and the cheap figures (the expensive sweeps are covered
   by `massbft figures` and spot-checked here in quick mode). *)

module Clusters = Massbft_harness.Clusters
module Runner = Massbft_harness.Runner
module Figures = Massbft_harness.Figures
module Config = Massbft.Config
module W = Massbft_workload.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Clusters                                                            *)
(* ------------------------------------------------------------------ *)

let test_nationwide_defaults () =
  let spec = Clusters.nationwide () in
  check_int "3 groups" 3 (Array.length spec.Massbft_sim.Topology.group_sizes);
  Array.iter (fun s -> check_int "7 nodes" 7 s) spec.Massbft_sim.Topology.group_sizes;
  check_float "20 Mbps WAN" 20e6 spec.Massbft_sim.Topology.wan_bps;
  check_float "2.5 Gbps LAN" 2.5e9 spec.Massbft_sim.Topology.lan_bps;
  check_int "8 cores" 8 spec.Massbft_sim.Topology.cores

let test_nationwide_rtts_in_paper_range () =
  (* Paper: 26.7 - 43.4 ms between any two of the three primary sites. *)
  for g1 = 0 to 2 do
    for g2 = 0 to 2 do
      if g1 <> g2 then begin
        let rtt = Clusters.nationwide_rtt g1 g2 in
        check_bool
          (Printf.sprintf "rtt %d-%d in range (%.4f)" g1 g2 rtt)
          true
          (rtt >= 0.0267 -. 1e-9 && rtt <= 0.0434 +. 1e-9);
        check_float "symmetric" rtt (Clusters.nationwide_rtt g2 g1)
      end
    done
  done

let test_worldwide_rtts () =
  (* Paper: 156 - 206 ms. *)
  for g1 = 0 to 2 do
    for g2 = 0 to 2 do
      if g1 <> g2 then begin
        let rtt = Clusters.worldwide_rtt g1 g2 in
        check_bool "range" true (rtt >= 0.156 -. 1e-9 && rtt <= 0.206 +. 1e-9)
      end
    done
  done

let test_cluster_overrides () =
  let spec = Clusters.nationwide ~group_sizes:[| 4; 7; 7 |] () in
  check_int "g0 override" 4 spec.Massbft_sim.Topology.group_sizes.(0);
  let spec7 = Clusters.nationwide ~groups:7 () in
  check_int "7 groups" 7 (Array.length spec7.Massbft_sim.Topology.group_sizes);
  check_bool "bad group count rejected" true
    (try
       ignore (Clusters.nationwide ~groups:9 ());
       false
     with Invalid_argument _ -> true);
  check_bool "mismatched sizes rejected" true
    (try
       ignore (Clusters.nationwide ~group_sizes:[| 4 |] ~groups:3 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let small_cfg system = Golden_fixture.small_cfg ~system ()

let test_runner_result_sanity () =
  let r =
    Runner.run ~warmup:1.0 ~duration:3.0
      ~spec:(Clusters.nationwide ~nodes_per_group:4 ())
      ~cfg:(small_cfg Config.Massbft) ()
  in
  check_bool "positive throughput" true (r.Runner.throughput_ktps > 0.1);
  check_bool "latency positive" true (r.Runner.mean_latency_ms > 10.0);
  check_bool "p99 >= mean" true (r.Runner.p99_latency_ms >= r.Runner.mean_latency_ms);
  check_bool "commit ratio in (0,1]" true
    (r.Runner.commit_ratio > 0.0 && r.Runner.commit_ratio <= 1.0);
  check_bool "wan accounted" true (r.Runner.wan_mb > 0.1);
  check_int "3 per-group entries" 3 (List.length r.Runner.per_group_ktps);
  let sum = List.fold_left ( +. ) 0.0 r.Runner.per_group_ktps in
  check_bool
    (Printf.sprintf "per-group sums to total (%.2f ~ %.2f)" sum r.Runner.throughput_ktps)
    true
    (Float.abs (sum -. r.Runner.throughput_ktps) < 0.01 *. Float.max 1.0 r.Runner.throughput_ktps);
  check_int "6 phases" 6 (List.length r.Runner.phases_ms);
  check_bool "rate series non-empty" true (r.Runner.rate_series <> [])

let test_runner_probe_lighter_latency () =
  let spec = Clusters.nationwide ~nodes_per_group:4 () in
  let cfg = { (small_cfg Config.Massbft) with Config.max_batch = 500 } in
  let sat = Runner.run ~warmup:2.0 ~duration:4.0 ~spec ~cfg () in
  let probe =
    Runner.run ~warmup:2.0 ~duration:4.0 ~spec ~cfg:(Runner.latency_probe cfg) ()
  in
  check_bool
    (Printf.sprintf "probe latency below saturated (%.0f < %.0f ms)"
       probe.Runner.mean_latency_ms sat.Runner.mean_latency_ms)
    true
    (probe.Runner.mean_latency_ms <= sat.Runner.mean_latency_ms)

let test_runner_deterministic () =
  let go () =
    (Runner.run ~warmup:1.0 ~duration:2.0
       ~spec:(Clusters.nationwide ~nodes_per_group:4 ())
       ~cfg:(small_cfg Config.Baseline) ())
      .Runner.throughput_ktps
  in
  check_float "same seed, same number" (go ()) (go ())

(* ------------------------------------------------------------------ *)
(* Bench report                                                        *)
(* ------------------------------------------------------------------ *)

module Bench_report = Massbft_harness.Bench_report
module Json = Massbft_util.Json

let test_bench_row_plan () =
  let quick = Bench_report.row_plan ~quick:true in
  let full = Bench_report.row_plan ~quick:false in
  check_int "quick: one row per system" (List.length Config.all_systems)
    (List.length quick);
  check_bool "quick: every row at 3 groups" true
    (List.for_all (fun (_, g) -> g = 3) quick);
  check_bool "full: quick rows plus MassBFT at 5" true
    (full = quick @ [ (Config.Massbft, 5) ]);
  check_int "no (system, groups) pair twice" (List.length full)
    (List.length (List.sort_uniq compare full))

let test_bench_json_schema () =
  let micro = { Bench_report.m_name = "sim/remote-send"; ns_per_run = 1234.5 } in
  let macro =
    Bench_report.run_macro ~quick:true ~groups:3 ~system:Config.Baseline ()
  in
  let doc =
    Bench_report.to_json ~date:"2026-08-07" ~mode:"quick" ~micros:[ micro ]
      ~macros:[ macro; { macro with Bench_report.groups = 5 } ] ()
  in
  let json = Json.parse doc in
  let keys = function Json.Obj fields -> List.map fst fields | _ -> [] in
  check_bool "schema v5" true
    (Json.member "schema_version" json = Some (Json.Num 5.0));
  Alcotest.(check (list string))
    "top-level keys, no scaling"
    [ "schema_version"; "date"; "mode"; "micro"; "macro" ]
    (keys json);
  (match Option.bind (Json.member "micro" json) Json.to_list with
  | Some [ m ] ->
      Alcotest.(check (list string)) "micro keys" [ "name"; "ns_per_run" ] (keys m)
  | _ -> Alcotest.fail "expected one micro row");
  (match Option.bind (Json.member "macro" json) Json.to_list with
  | Some rows ->
      check_bool "every macro row has groups" true
        (List.for_all (fun r -> Json.member "groups" r <> None) rows);
      Alcotest.(check (list (float 0.0)))
        "group counts" [ 3.0; 5.0 ]
        (List.filter_map
           (fun r -> Option.bind (Json.member "groups" r) Json.to_float)
           rows);
      Alcotest.(check (list string))
        "macro keys"
        [
          "system"; "workload"; "groups"; "wall_s"; "sim_s";
          "sim_s_per_wall_s"; "committed_txns"; "committed_txns_per_wall_s";
          "throughput_ktps"; "mean_latency_ms"; "p99_latency_ms";
          "commit_ratio"; "wan_mb";
        ]
        (keys (List.hd rows));
      check_bool "workload is YCSB-A" true
        (Json.member "workload" (List.hd rows)
        = Some (Json.Str (W.kind_name W.Ycsb_a)))
  | None -> Alcotest.fail "missing macro array");
  (* Every macro value the report carries must be finite; the renderer
     is the last line of defense against committing a NaN baseline. *)
  List.iter
    (fun (what, v) -> check_bool (what ^ " finite") true (Float.is_finite v))
    [
      ("wall_s", macro.Bench_report.wall_s);
      ("sim_s", macro.Bench_report.sim_s);
      ("sim_s_per_wall_s", macro.Bench_report.sim_s_per_wall_s);
      ("committed_txns_per_wall_s", macro.Bench_report.committed_txns_per_wall_s);
      ("throughput_ktps", macro.Bench_report.throughput_ktps);
      ("mean_latency_ms", macro.Bench_report.mean_latency_ms);
      ("p99_latency_ms", macro.Bench_report.p99_latency_ms);
      ("commit_ratio", macro.Bench_report.commit_ratio);
      ("wan_mb", macro.Bench_report.wan_mb);
    ];
  check_bool "non-finite rejected" true
    (try
       ignore
         (Bench_report.to_json ~date:"2026-08-07" ~mode:"quick"
            ~micros:[ { Bench_report.m_name = "bad"; ns_per_run = Float.nan } ]
            ~macros:[] ());
       false
     with Invalid_argument _ -> true)

let test_bench_massbft_row () =
  (* One quick MassBFT row end-to-end through the public entry point. *)
  let m = Bench_report.run_macro ~quick:true ~groups:3 ~system:Config.Massbft () in
  check_int "groups" 3 m.Bench_report.groups;
  check_bool "committed positive" true (m.Bench_report.committed_txns > 0);
  check_bool "wall finite" true (Float.is_finite m.Bench_report.wall_s);
  check_bool "rate finite" true (Float.is_finite m.Bench_report.sim_s_per_wall_s)

let test_bench_macro_deterministic () =
  (* The simulated side of a macro entry is a pure function of the
     seed: only the wall-clock fields may differ between two runs. *)
  let run () =
    Bench_report.run_macro ~quick:true ~groups:3 ~system:Config.Baseline ()
  in
  let a = run () and b = run () in
  check_int "committed_txns" a.Bench_report.committed_txns
    b.Bench_report.committed_txns;
  check_float "sim_s" a.Bench_report.sim_s b.Bench_report.sim_s;
  check_float "throughput_ktps" a.Bench_report.throughput_ktps
    b.Bench_report.throughput_ktps;
  check_float "mean_latency_ms" a.Bench_report.mean_latency_ms
    b.Bench_report.mean_latency_ms;
  check_float "p99_latency_ms" a.Bench_report.p99_latency_ms
    b.Bench_report.p99_latency_ms;
  check_float "commit_ratio" a.Bench_report.commit_ratio
    b.Bench_report.commit_ratio;
  check_float "wan_mb" a.Bench_report.wan_mb b.Bench_report.wan_mb

(* ------------------------------------------------------------------ *)
(* Figures (cheap ones; quick mode)                                    *)
(* ------------------------------------------------------------------ *)

let test_fig10_shape () =
  let fig = Figures.fig10 () in
  check_int "5 batch sizes" 5 (List.length fig.Figures.rows);
  List.iter
    (fun row ->
      match row.Figures.cells with
      | [ m; b; ratio ] ->
          check_bool "massbft cheaper" true (m.Figures.value < b.Figures.value);
          check_bool
            (Printf.sprintf "ratio near 3/2.33 (%.3f)" ratio.Figures.value)
            true
            (ratio.Figures.value > 1.1 && ratio.Figures.value < 1.35)
      | _ -> Alcotest.fail "expected 3 cells")
    fig.Figures.rows

let test_tables_cover_all_systems () =
  (* The rows are derived from Config's strategy functions; they must
     read exactly as the published feature matrix. *)
  let fig = Figures.tables () in
  Alcotest.(check (list string))
    "Table II rows"
    [
      "Steward    repl=one-way (leader)   global=single Raft     order=global log   coding=entire block";
      "ISS        repl=one-way (leader)   global=per-group Raft  order=sync epochs  coding=entire block";
      "GeoBFT     repl=one-way (leader)   global=broadcast       order=sync rounds  coding=entire block";
      "Baseline   repl=one-way (leader)   global=per-group Raft  order=sync rounds  coding=entire block";
      "BR         repl=bijective (full)   global=per-group Raft  order=sync rounds  coding=entire block";
      "EBR        repl=encoded bijective  global=per-group Raft  order=sync rounds  coding=erasure-coded";
      "MassBFT    repl=encoded bijective  global=per-group Raft  order=async VTS    coding=erasure-coded";
    ]
    (List.map (fun r -> r.Figures.label) fig.Figures.rows);
  List.iter
    (fun sys ->
      check_bool
        (Config.system_name sys ^ " present")
        true
        (List.exists
           (fun r ->
             String.starts_with ~prefix:(Config.system_name sys ^ " ")
               r.Figures.label)
           fig.Figures.rows))
    Config.all_systems

let test_fig1b_quick_decreasing () =
  let fig = Figures.fig1b ~quick:true () in
  let tputs =
    List.map
      (fun r -> (List.hd r.Figures.cells).Figures.value)
      fig.Figures.rows
  in
  match tputs with
  | a :: rest ->
      check_bool "monotone decreasing" true
        (fst
           (List.fold_left
              (fun (ok, prev) v -> (ok && v < prev, v))
              (true, a +. 1.0) (a :: rest)))
  | [] -> Alcotest.fail "no rows"

let test_all_figures_registered () =
  let ids = List.map (fun (id, _, _) -> id) Figures.all in
  List.iter
    (fun expected ->
      check_bool (expected ^ " registered") true (List.mem expected ids))
    [
      "fig1b"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13a"; "fig13b";
      "fig14"; "fig15"; "ablations"; "tables";
    ]

(* ------------------------------------------------------------------ *)
(* Feature composition                                                 *)
(* ------------------------------------------------------------------ *)

module Fault_spec = Massbft_faults.Fault_spec
module Invariants = Massbft_faults.Invariants
module Deployment = Massbft_faults.Deployment
module Chaos = Massbft_faults.Chaos
module Adv_spec = Massbft_adversary.Adv_spec
module Evidence = Massbft_adversary.Evidence
module Reconfig = Massbft_reconfig.Reconfig
module Reconfig_spec = Massbft_reconfig.Reconfig_spec
module Trace = Massbft_trace.Trace
module Sampler = Massbft_obs.Sampler

(* One scenario of every kind, each within its group's tolerance: the
   equivocator is g2's one Byzantine replica, the crash hits g0, and the
   join lands in g1. *)
let compose_spec = Golden_fixture.small_spec

let compose_faults =
  Fault_spec.of_string
    "@1.5 link-delay g0->g1 add 0.02 class control for 1\n\
     @2 crash-node g0/n2\n\
     @3 recover-node g0/n2\n\
     @2.5 slow-cpu g1/n2 factor 2 for 1\n"

let compose_adversary = Adv_spec.of_string "@2 equivocate node:g2/n3 for 2\n"
let compose_reconfig = Reconfig_spec.of_string "@2.5 add-node g1\n"

(* Every run mode at once: a trace sink, the obs sampler, the fault
   schedule, the adversary plan and the reconfiguration plan, with the
   chaos fuzzer's safety/liveness checkers riding along. *)
let compose_run () =
  let trace = Trace.create () in
  let obs = Sampler.create (Massbft_obs.Registry.create ()) in
  let started = ref None in
  let r =
    Runner.run ~warmup:1.0 ~duration:11.0 ~trace ~obs ~faults:compose_faults
      ~adversary:compose_adversary ~reconfig:compose_reconfig
      ~on_start:(fun d ->
        let i = Deployment.invariants d in
        Invariants.attach i;
        started := Some (d, i))
      ~spec:(compose_spec ()) ~cfg:(small_cfg Config.Massbft) ()
  in
  let d, inv = Option.get !started in
  Invariants.finalize inv;
  (* Injections per strategy label: "equivocate" for the adversary,
     "fault" for the schedule. *)
  let injected strategy =
    List.fold_left
      (fun acc (smp : Massbft_obs.Registry.sample) ->
        match smp.Massbft_obs.Registry.point with
        | Massbft_obs.Registry.P_counter n
          when smp.Massbft_obs.Registry.name = "massbft_faults_injected_total"
               && List.mem ("strategy", strategy) smp.Massbft_obs.Registry.labels
          ->
            acc + n
        | _ -> acc)
      0
      (Massbft_obs.Registry.collect (Sampler.registry obs))
  in
  ( r,
    Deployment.violations d inv,
    Trace.length trace,
    (Reconfig.epochs d.Deployment.controller, injected "equivocate",
     injected "fault") )

let test_features_compose () =
  let r, violations, traced, ((epochs, equivocations, faults) as counts) =
    compose_run ()
  in
  check_bool "run commits" true (r.Runner.entries_executed > 0);
  check_bool "trace recorded" true (traced > 0);
  check_bool "join reached an epoch boundary" true (epochs >= 1);
  check_bool "adversary interfered" true (equivocations > 0);
  check_bool "faults injected" true (faults > 0);
  check_int "sampler filled per-leader utilization" 3
    (List.length r.Runner.leader_cpu_util);
  List.iter
    (fun (v : Invariants.violation) ->
      check_bool
        ("violation carries a verified evidence pair: "
        ^ Invariants.violation_to_string v)
        true
        (match v.Invariants.evidence with
        | Some p -> Evidence.verify_pair ~master:Evidence.default_master p
        | None -> false))
    violations;
  check_int "no invariant violation" 0 (List.length violations);
  let r', violations', traced', counts' = compose_run () in
  check_bool "same-seed runs bit-identical" true
    (r = r' && violations = violations' && traced = traced' && counts = counts')

(* One scenario, two entry points: the runner and the chaos fuzzer build and
   start the cluster through the same Deployment calls, so over the same
   simulated span they drive the identical simulation (the fuzzer's
   checkers only read state). *)
let test_runner_matches_chaos () =
  let spec = compose_spec () and cfg = small_cfg Config.Massbft in
  let o =
    Chaos.run_schedule ~adversary:compose_adversary ~reconfig:compose_reconfig
      ~spec ~cfg compose_faults
  in
  let started = ref None in
  ignore
    (Runner.run ~warmup:0.0 ~duration:o.Chaos.ran_until ~faults:compose_faults
       ~adversary:compose_adversary ~reconfig:compose_reconfig
       ~on_start:(fun d -> started := Some d)
       ~spec ~cfg ());
  let d = Option.get !started in
  check_bool "the scenario bites" true
    (o.Chaos.executed > 0 && o.Chaos.injected > 0 && o.Chaos.adv_injected > 0
   && o.Chaos.epochs >= 1);
  check_int "executed entries" o.Chaos.executed
    (Massbft.Engine.entries_executed_total d.Deployment.engine);
  check_int "fault injections" o.Chaos.injected
    (Massbft_faults.Injector.injected_total d.Deployment.injector);
  check_int "adversary interferences" o.Chaos.adv_injected
    (Massbft_adversary.Adversary.injected_total
       (Option.get d.Deployment.adversary));
  check_int "epochs" o.Chaos.epochs (Reconfig.epochs d.Deployment.controller)

let () =
  Alcotest.run "massbft_harness"
    [
      ( "compose",
        [
          Alcotest.test_case "trace + obs + faults + adversary + reconfig"
            `Slow test_features_compose;
          Alcotest.test_case "runner and chaos drive one simulation" `Slow
            test_runner_matches_chaos;
        ] );
      ( "clusters",
        [
          Alcotest.test_case "nationwide defaults" `Quick test_nationwide_defaults;
          Alcotest.test_case "nationwide RTT range" `Quick test_nationwide_rtts_in_paper_range;
          Alcotest.test_case "worldwide RTT range" `Quick test_worldwide_rtts;
          Alcotest.test_case "overrides" `Quick test_cluster_overrides;
        ] );
      ( "runner",
        [
          Alcotest.test_case "result sanity" `Quick test_runner_result_sanity;
          Alcotest.test_case "probe lighter" `Slow test_runner_probe_lighter_latency;
          Alcotest.test_case "determinism" `Quick test_runner_deterministic;
        ] );
      ( "bench_report",
        [
          Alcotest.test_case "row plan" `Quick test_bench_row_plan;
          Alcotest.test_case "json schema" `Quick test_bench_json_schema;
          Alcotest.test_case "macro determinism" `Quick test_bench_macro_deterministic;
          Alcotest.test_case "MassBFT row commits" `Slow test_bench_massbft_row;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig10 shape" `Quick test_fig10_shape;
          Alcotest.test_case "tables coverage" `Quick test_tables_cover_all_systems;
          Alcotest.test_case "fig1b decreasing" `Slow test_fig1b_quick_decreasing;
          Alcotest.test_case "registry complete" `Quick test_all_figures_registered;
        ] );
    ]
