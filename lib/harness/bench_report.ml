module Config = Massbft.Config
module Json = Massbft_util.Json
module W = Massbft_workload.Workload

type micro = { m_name : string; ns_per_run : float }

type macro = {
  system : string;
  workload : string;
  groups : int;
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

(* v2 added the "scaling" section; v4 has one scaling row per group
   count and no "host_domains" or per-macro "host_phases"; v5 folds the
   scaling rows into "macro", each row carrying its group count. *)
let schema_version = 5

(* Quick mode is the CI smoke: 1% workload scale over windows just long
   enough that every system's row commits (Steward's first entries at
   1% scale commit after 4 s). Full mode is the figure harness
   proper. *)
let windows ~quick = if quick then (2.0, 5.0) else (4.0, 12.0)

let row_plan ~quick =
  List.map (fun system -> (system, 3)) Config.all_systems
  @ if quick then [] else [ (Config.Massbft, 5) ]

let run_macro ?(quick = false) ~groups ~system () =
  let warmup, duration = windows ~quick in
  let cfg =
    {
      (Config.default ~system ~workload:W.Ycsb_a ()) with
      Config.workload_scale = (if quick then 0.01 else 1.0);
    }
  in
  let spec = Clusters.nationwide ~groups () in
  let t0 = Unix.gettimeofday () in
  let r = Runner.run ~warmup ~duration ~spec ~cfg () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let committed = r.Runner.committed_txns in
  let sim_s = warmup +. duration in
  {
    system = Config.system_name system;
    workload = W.kind_name cfg.Config.workload;
    groups;
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

(* ---- JSON rendering ---- *)

let num ~ctx v =
  if Float.is_finite v then Json.number v
  else
    invalid_arg
      (Printf.sprintf "Bench_report.to_json: non-finite value for %s" ctx)

let micro_json m =
  Json.obj
    [
      ("name", Json.quote m.m_name);
      ("ns_per_run", num ~ctx:(m.m_name ^ ".ns_per_run") m.ns_per_run);
    ]

let macro_json m =
  let n ctx v = num ~ctx:(Printf.sprintf "%s[g=%d].%s" m.system m.groups ctx) v in
  Json.obj
    [
      ("system", Json.quote m.system);
      ("workload", Json.quote m.workload);
      ("groups", string_of_int m.groups);
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

(* One row per line, so a committed baseline diffs row by row. *)
let rows render xs = Json.arr (List.map (fun x -> "\n  " ^ render x) xs)

let to_json ~date ~mode ~micros ~macros () =
  Json.obj
    [
      ("schema_version", string_of_int schema_version);
      ("date", Json.quote date);
      ("mode", Json.quote mode);
      ("micro", rows micro_json micros);
      ("macro", rows macro_json macros);
    ]
  ^ "\n"
