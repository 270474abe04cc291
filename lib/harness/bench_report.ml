module Config = Massbft.Config
module Engine = Massbft.Engine
module Metrics = Massbft.Metrics
module Stats = Massbft_util.Stats
module Json = Massbft_util.Json
module W = Massbft_workload.Workload

type micro = { m_name : string; ns_per_run : float }

type macro = {
  system : string;
  workload : string;
  wall_s : float;
  sim_s : float;
  sim_s_per_wall_s : float;
  committed_txns : int;
  committed_txns_per_wall_s : float;
  throughput_ktps : float;
  mean_latency_ms : float;
  p99_latency_ms : float;
  commit_ratio : float;
  wan_mb : float;
}

type scaling = {
  sc_groups : int;
  sc_wall_s : float;
  sc_sim_s : float;
  sc_sim_s_per_wall_s : float;
  sc_committed_txns : int;
}

(* v2 added the "scaling" section; v4 has one scaling row per group
   count and no "host_domains" or per-macro "host_phases". *)
let schema_version = 4

(* Quick mode mirrors the CI figure smoke (short windows, 1% workload
   scale); full mode the figure harness proper. *)
let windows ~quick = if quick then (1.0, 3.0) else (4.0, 12.0)

let run_macro ?(quick = false) ?prof ~system () =
  let warmup, duration = windows ~quick in
  let cfg =
    {
      (Config.default ~system ~workload:W.Ycsb_a ()) with
      Config.workload_scale = (if quick then 0.01 else 1.0);
    }
  in
  let spec = Clusters.nationwide () in
  let engine = ref None in
  let t0 = Unix.gettimeofday () in
  let r =
    Runner.run ~warmup ~duration ?prof
      ~on_engine:(fun e _ _ -> engine := Some e)
      ~spec ~cfg ()
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let committed =
    match !engine with
    | None -> 0
    | Some e -> Stats.Counter.get (Engine.metrics e).Metrics.committed_txns
  in
  let sim_s = warmup +. duration in
  {
    system = Config.system_name system;
    workload = W.kind_name cfg.Config.workload;
    wall_s;
    sim_s;
    sim_s_per_wall_s = (if wall_s > 0.0 then sim_s /. wall_s else 0.0);
    committed_txns = committed;
    committed_txns_per_wall_s =
      (if wall_s > 0.0 then float_of_int committed /. wall_s else 0.0);
    throughput_ktps = r.Runner.throughput_ktps;
    mean_latency_ms = r.Runner.mean_latency_ms;
    p99_latency_ms = r.Runner.p99_latency_ms;
    commit_ratio = r.Runner.commit_ratio;
    wan_mb = r.Runner.wan_mb;
  }

let run_scaling_row ~quick ~groups =
  (* Each row starts from a compacted major heap: the macro section
     abandons hundreds of MB of stores and ledgers per system, and the
     resulting fragmentation bleeds 20%+ into whichever rows run later
     in the same process — the rows must measure the driver, not the
     report's section order. *)
  Gc.compact ();
  let warmup, duration = windows ~quick in
  let cfg =
    {
      (Config.default ~system:Config.Massbft ~workload:W.Ycsb_a ()) with
      Config.workload_scale = (if quick then 0.01 else 1.0);
    }
  in
  let spec = Clusters.nationwide ~groups () in
  let engine = ref None in
  let t0 = Unix.gettimeofday () in
  ignore
    (Runner.run ~warmup ~duration
       ~on_engine:(fun e _ _ -> engine := Some e)
       ~spec ~cfg ());
  let wall_s = Unix.gettimeofday () -. t0 in
  let committed =
    match !engine with
    | None -> 0
    | Some e -> Stats.Counter.get (Engine.metrics e).Metrics.committed_txns
  in
  let sim_s = warmup +. duration in
  {
    sc_groups = groups;
    sc_wall_s = wall_s;
    sc_sim_s = sim_s;
    sc_sim_s_per_wall_s = (if wall_s > 0.0 then sim_s /. wall_s else 0.0);
    sc_committed_txns = committed;
  }

let run_scaling ?(quick = false) ?(groups_list = [ 3; 5 ])
    ?(on_row = fun _ -> ()) () =
  List.map
    (fun groups ->
      let row = run_scaling_row ~quick ~groups in
      on_row row;
      row)
    groups_list

(* ---- JSON rendering ---- *)

let num ~ctx v =
  if not (Float.is_finite v) then
    invalid_arg
      (Printf.sprintf "Bench_report.to_json: non-finite value for %s" ctx)
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.6g" v

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Json.quote k ^ ": " ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat ",\n    " items ^ "]"

let micro_json m =
  obj
    [
      ("name", Json.quote m.m_name);
      ("ns_per_run", num ~ctx:(m.m_name ^ ".ns_per_run") m.ns_per_run);
    ]

let macro_json m =
  let n ctx v = num ~ctx:(m.system ^ "." ^ ctx) v in
  obj
    [
      ("system", Json.quote m.system);
      ("workload", Json.quote m.workload);
      ("wall_s", n "wall_s" m.wall_s);
      ("sim_s", n "sim_s" m.sim_s);
      ("sim_s_per_wall_s", n "sim_s_per_wall_s" m.sim_s_per_wall_s);
      ("committed_txns", string_of_int m.committed_txns);
      ( "committed_txns_per_wall_s",
        n "committed_txns_per_wall_s" m.committed_txns_per_wall_s );
      ("throughput_ktps", n "throughput_ktps" m.throughput_ktps);
      ("mean_latency_ms", n "mean_latency_ms" m.mean_latency_ms);
      ("p99_latency_ms", n "p99_latency_ms" m.p99_latency_ms);
      ("commit_ratio", n "commit_ratio" m.commit_ratio);
      ("wan_mb", n "wan_mb" m.wan_mb);
    ]

let scaling_json s =
  let ctx = Printf.sprintf "scaling[g=%d]" s.sc_groups in
  let n c v = num ~ctx:(ctx ^ "." ^ c) v in
  obj
    [
      ("groups", string_of_int s.sc_groups);
      ("wall_s", n "wall_s" s.sc_wall_s);
      ("sim_s", n "sim_s" s.sc_sim_s);
      ("sim_s_per_wall_s", n "sim_s_per_wall_s" s.sc_sim_s_per_wall_s);
      ("committed_txns", string_of_int s.sc_committed_txns);
    ]

let to_json ~date ~mode ?(scaling = []) ~micros ~macros () =
  Printf.sprintf
    "{\n\
    \  \"schema_version\": %d,\n\
    \  \"date\": %s,\n\
    \  \"mode\": %s,\n\
    \  \"micro\": %s,\n\
    \  \"macro\": %s,\n\
    \  \"scaling\": %s\n\
     }\n"
    schema_version (Json.quote date) (Json.quote mode)
    (arr (List.map micro_json micros))
    (arr (List.map macro_json macros))
    (arr (List.map scaling_json scaling))
