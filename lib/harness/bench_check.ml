(* The bench-regression gate: compare a fresh quick-mode micro run
   against a committed BENCH_<date>.json baseline.

   Micro rows are the right gate unit: bechamel's OLS ns/run estimates
   are stable within a host (the committed baseline and CI use the same
   runner class), whereas macro wall times swing with workload scale
   and host load. The tolerance is per-benchmark and deliberately wide
   (default ±25%) — the gate exists to catch step-change regressions
   from a bad refactor, not 3% noise. *)

module Json = Massbft_util.Json

(* ---- Baseline extraction ---- *)

type baseline = {
  b_path : string;
  b_date : string;
  b_mode : string;
  b_schema : int;
  b_micros : (string * float) list;  (* name -> ns_per_run *)
}

let load_baseline path =
  let doc =
    try Json.of_file path with
    | Json.Parse_error m -> failwith (path ^ ": " ^ m)
    | Sys_error m -> failwith m
  in
  let schema =
    match Json.member "schema_version" doc with
    | Some (Json.Num f) -> int_of_float f
    | _ -> failwith (path ^ ": missing schema_version")
  in
  let str_field k =
    Option.value ~default:""
      (Option.bind (Json.member k doc) Json.to_string)
  in
  let micros =
    match Option.bind (Json.member "micro" doc) Json.to_list with
    | None -> failwith (path ^ ": missing micro array")
    | Some rows ->
        List.filter_map
          (fun row ->
            match
              ( Option.bind (Json.member "name" row) Json.to_string,
                Option.bind (Json.member "ns_per_run" row) Json.to_float )
            with
            | Some name, Some ns -> Some (name, ns)
            | _ -> None)
          rows
  in
  if micros = [] then failwith (path ^ ": baseline has no micro rows");
  {
    b_path = path;
    b_date = str_field "date";
    b_mode = str_field "mode";
    b_schema = schema;
    b_micros = micros;
  }

(* ---- Comparison ---- *)

type status = Ok | Regression | Improvement | New | Missing

type verdict = {
  v_name : string;
  v_baseline_ns : float;  (* nan for New *)
  v_current_ns : float;  (* nan for Missing *)
  v_ratio : float;  (* current / baseline; nan when either side absent *)
  v_status : status;
}

type result = {
  r_tolerance : float;
  r_verdicts : verdict list;  (* baseline order, then new benchmarks *)
  r_regressions : int;
  r_missing : int;
}

let default_tolerance = 0.25

let compare_micros ?(tolerance = default_tolerance) ~baseline ~current () =
  if tolerance <= 0.0 then invalid_arg "Bench_check: tolerance must be > 0";
  let verdicts_base =
    List.map
      (fun (name, base_ns) ->
        match List.assoc_opt name current with
        | None ->
            {
              v_name = name;
              v_baseline_ns = base_ns;
              v_current_ns = Float.nan;
              v_ratio = Float.nan;
              v_status = Missing;
            }
        | Some cur_ns ->
            let ratio = if base_ns > 0.0 then cur_ns /. base_ns else 1.0 in
            let status =
              if ratio > 1.0 +. tolerance then Regression
              else if ratio < 1.0 -. tolerance then Improvement
              else Ok
            in
            {
              v_name = name;
              v_baseline_ns = base_ns;
              v_current_ns = cur_ns;
              v_ratio = ratio;
              v_status = status;
            })
      baseline.b_micros
  in
  let verdicts_new =
    List.filter_map
      (fun (name, cur_ns) ->
        if List.mem_assoc name baseline.b_micros then None
        else
          Some
            {
              v_name = name;
              v_baseline_ns = Float.nan;
              v_current_ns = cur_ns;
              v_ratio = Float.nan;
              v_status = New;
            })
      current
  in
  let verdicts = verdicts_base @ verdicts_new in
  let count s =
    List.length (List.filter (fun v -> v.v_status = s) verdicts)
  in
  {
    r_tolerance = tolerance;
    r_verdicts = verdicts;
    r_regressions = count Regression;
    r_missing = count Missing;
  }

(* A missing benchmark fails the gate too: silently dropping a hot-path
   benchmark is exactly how a regression would dodge the comparison. *)
let passed r = r.r_regressions = 0 && r.r_missing = 0

let status_name = function
  | Ok -> "ok"
  | Regression -> "REGRESSION"
  | Improvement -> "improved"
  | New -> "new"
  | Missing -> "MISSING"

let render ~baseline r =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "bench check vs %s (%s, %s mode, schema v%d), tolerance +-%.0f%%\n"
    baseline.b_path baseline.b_date baseline.b_mode baseline.b_schema
    (100.0 *. r.r_tolerance);
  List.iter
    (fun v ->
      match v.v_status with
      | Missing ->
          add "  %-32s %10.1f ns ->      (absent)  MISSING\n" v.v_name
            v.v_baseline_ns
      | New ->
          add "  %-32s      (absent) -> %10.1f ns  new\n" v.v_name
            v.v_current_ns
      | s ->
          add "  %-32s %10.1f ns -> %10.1f ns  %+6.1f%%  %s\n" v.v_name
            v.v_baseline_ns v.v_current_ns
            (100.0 *. (v.v_ratio -. 1.0))
            (status_name s))
    r.r_verdicts;
  let improvements =
    List.length
      (List.filter (fun v -> v.v_status = Improvement) r.r_verdicts)
  in
  add "%d benchmarks: %d regression%s, %d missing, %d improved\n"
    (List.length r.r_verdicts) r.r_regressions
    (if r.r_regressions = 1 then "" else "s")
    r.r_missing improvements;
  if passed r then add "bench check: PASS\n"
  else add "bench check: FAIL\n";
  Buffer.contents buf
