(* The benchmark suite:

   1. Named bechamel micro-benchmarks for every substrate hot path
      (see micros.ml; shared with the [massbft bench] subcommand).
   2. Macro benchmarks: one full engine run per system on YCSB-A over
      the nationwide cluster, reporting both the simulated-side results
      and the wall-clock cost of producing them.
   3. (--figures) The figure harness: one experiment per table/figure
      of the paper's evaluation (see EXPERIMENTS.md).

   Flags:
     --quick          fast smoke pass (reduced bechamel quota, short
                      macro windows at 1% scale); MASSBFT_BENCH_QUICK=1
                      does the same
     --json [FILE]    write the micro+macro baseline to FILE (default
                      BENCH_<date>.json) in the Bench_report schema
     --check FILE     compare this run's micro results against the
                      baseline FILE and exit non-zero on regressions
     --tolerance PCT  per-benchmark tolerance for --check (default 25)
     --prof FILE      self-profile the MassBFT macro row and write the
                      profiler's JSON report to FILE
     --figures        also run the figure harness *)

module Config = Massbft.Config
module Bench_report = Massbft_harness.Bench_report
module Bench_check = Massbft_harness.Bench_check
module Prof = Massbft_prof.Prof
module Prof_export = Massbft_prof.Prof_export

(* ------------------------------------------------------------------ *)
(* Macro benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

let run_macros ~quick ~prof_file () =
  Printf.printf "=== macro benchmarks (YCSB-A, nationwide, %s mode) ===\n"
    (if quick then "quick" else "full");
  let macros =
    List.map
      (fun system ->
        (* Only the MassBFT row is profiled (and only when asked): the
           profiler is free of per-event cost but the unprofiled rows
           keep the baseline comparison maximally conservative. *)
        let prof =
          if prof_file <> None && system = Config.Massbft then
            Some (Prof.create ())
          else None
        in
        let m = Bench_report.run_macro ~quick ?prof ~system () in
        Printf.printf
          "  %-9s %8.2f ktps  %6.2fs wall  %5.2f sim-s/wall-s  %8.0f txns/wall-s\n%!"
          m.Bench_report.system m.Bench_report.throughput_ktps
          m.Bench_report.wall_s m.Bench_report.sim_s_per_wall_s
          m.Bench_report.committed_txns_per_wall_s;
        (match (prof, prof_file) with
        | Some p, Some file ->
            Prof_export.write_json ~slices:true p file;
            Printf.printf "  wrote host profile to %s\n%!" file;
            print_string (Prof_export.text (Prof.report p))
        | _ -> ());
        m)
      Config.all_systems
  in
  print_newline ();
  macros

(* ------------------------------------------------------------------ *)
(* Scheduler scaling table                                             *)
(* ------------------------------------------------------------------ *)

let run_scaling ~quick () =
  Printf.printf "=== scheduler scaling (MassBFT YCSB-A, groups, %s mode) ===\n"
    (if quick then "quick" else "full");
  Printf.printf "  %-7s %9s %16s %15s\n" "groups" "wall_s" "sim_s/wall_s"
    "committed_txns";
  let groups_list = if quick then [ 3 ] else [ 3; 5 ] in
  let rows =
    Bench_report.run_scaling ~quick ~groups_list
      ~on_row:(fun (s : Bench_report.scaling) ->
        Printf.printf "  %-7d %9.2f %16.3f %15d\n%!" s.sc_groups s.sc_wall_s
          s.sc_sim_s_per_wall_s s.sc_committed_txns)
      ()
  in
  print_newline ();
  rows

(* ------------------------------------------------------------------ *)
(* Figure harness                                                      *)
(* ------------------------------------------------------------------ *)

let run_figures ~quick =
  Printf.printf "=== figure harness (%s mode) ===\n\n"
    (if quick then "quick" else "full");
  List.iter
    (fun (id, _, (f : ?quick:bool -> unit -> Massbft_harness.Figures.figure)) ->
      let t0 = Unix.gettimeofday () in
      let fig = f ~quick () in
      Format.printf "%a" Massbft_harness.Figures.pp_figure fig;
      Format.printf "[%s took %.1fs wall-clock]@.@." id
        (Unix.gettimeofday () -. t0))
    Massbft_harness.Figures.all

let () =
  let argv = Array.to_list Sys.argv in
  let quick =
    List.mem "--quick" argv
    ||
    match Sys.getenv_opt "MASSBFT_BENCH_QUICK" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false
  in
  let figures = List.mem "--figures" argv in
  let flag_value name =
    let rec find = function
      | flag :: next :: _
        when flag = name && String.length next > 0 && next.[0] <> '-' ->
          Some next
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let json_file =
    if not (List.mem "--json" argv) then None
    else
      match flag_value "--json" with
      | Some f -> Some f
      | None ->
          let tm = Unix.localtime (Unix.time ()) in
          Some
            (Printf.sprintf "BENCH_%04d-%02d-%02d.json" (tm.Unix.tm_year + 1900)
               (tm.Unix.tm_mon + 1) tm.Unix.tm_mday)
  in
  let check_file =
    if not (List.mem "--check" argv) then None
    else
      match flag_value "--check" with
      | Some f -> Some f
      | None ->
          prerr_endline "bench: --check requires a baseline file";
          exit 2
  in
  let tolerance =
    match flag_value "--tolerance" with
    | None -> Bench_check.default_tolerance
    | Some s -> (
        match float_of_string_opt s with
        | Some pct when pct > 0.0 -> pct /. 100.0
        | _ ->
            prerr_endline "bench: --tolerance expects a positive percentage";
            exit 2)
  in
  let prof_file = flag_value "--prof" in
  (* The scaling table runs first: measuring its rows from the pristine
     process keeps them free of the heap growth the micro and macro
     sections leave behind (a per-row compaction recovers most but not
     all of it). *)
  let scaling = run_scaling ~quick () in
  let micros = Massbft_bench.Micros.run_micro ~quick () in
  let macros = run_macros ~quick ~prof_file () in
  (match json_file with
  | None -> ()
  | Some file ->
      let tm = Unix.localtime (Unix.time ()) in
      let date =
        Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
      in
      let doc =
        Bench_report.to_json ~date
          ~mode:(if quick then "quick" else "full")
          ~scaling ~micros ~macros ()
      in
      let oc = open_out file in
      output_string oc doc;
      close_out oc;
      Printf.printf "wrote %s\n" file);
  if figures then run_figures ~quick;
  match check_file with
  | None -> ()
  | Some file ->
      let baseline = Bench_check.load_baseline file in
      let current =
        List.map
          (fun m -> (m.Bench_report.m_name, m.Bench_report.ns_per_run))
          micros
      in
      let result = Bench_check.compare_micros ~tolerance ~baseline ~current () in
      print_string (Bench_check.render ~baseline result);
      if not (Bench_check.passed result) then exit 1
