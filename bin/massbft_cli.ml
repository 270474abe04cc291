(* The massbft command-line tool: run single experiments, regenerate
   the paper's figures, and inspect transfer plans. *)

open Cmdliner
module Config = Massbft.Config
module W = Massbft_workload.Workload
module Runner = Massbft_harness.Runner
module Clusters = Massbft_harness.Clusters
module Figures = Massbft_harness.Figures
module Trace = Massbft_trace.Trace
module Trace_export = Massbft_trace.Trace_export
module Obs_registry = Massbft_obs.Registry
module Sampler = Massbft_obs.Sampler
module Exposition = Massbft_obs.Exposition
module Saturation = Massbft_obs.Saturation
module Fault_spec = Massbft_faults.Fault_spec
module Chaos = Massbft_faults.Chaos
module Adv_spec = Massbft_adversary.Adv_spec
module Reconfig_spec = Massbft_reconfig.Reconfig_spec
module Evidence = Massbft_adversary.Evidence
module Topology = Massbft_sim.Topology
module Timed_line = Massbft_sim.Timed_line
module Prof = Massbft_prof.Prof
module Prof_export = Massbft_prof.Prof_export
module Bench_check = Massbft_harness.Bench_check
module Bench_report = Massbft_harness.Bench_report

(* Schedule/plan files come from users and CI artifacts: every way they
   can be wrong must end in a one-line diagnostic naming the file, the
   line and the first bad token — not a backtrace — and exit 2 (distinct from a
   run failure's exit 1). *)
let usage_error = 2

let die_parse ~what ~file msg =
  prerr_endline (Printf.sprintf "massbft: %s: bad %s: %s" file what msg);
  exit usage_error

let read_file_or_die ~what file =
  match open_in file with
  | exception Sys_error e ->
      prerr_endline
        (Printf.sprintf "massbft: cannot read %s %s: %s" what file e);
      exit usage_error
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      text

(* [parse] and [validate] are one scenario language's reader and
   deployment check (Fault_spec, Adv_spec or Reconfig_spec). *)
let parse_scenario_or_die ~what ~parse ~validate ~(spec : Topology.spec) file =
  let text = read_file_or_die ~what file in
  match parse text with
  | exception Timed_line.Parse_error msg -> die_parse ~what ~file msg
  | plan -> (
      match validate ~group_sizes:spec.Topology.group_sizes plan with
      | Ok () -> plan
      | Error msg -> die_parse ~what ~file msg)

(* Output destinations are checked before the run starts, so an
   unwritable path costs one diagnostic line, not a finished experiment.
   The check creates the file but leaves an existing one untouched. *)
let check_writable ~flag file =
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 file with
  | oc -> close_out oc
  | exception Sys_error e ->
      prerr_endline (Printf.sprintf "massbft: cannot write %s file: %s" flag e);
      exit usage_error

let write_file file text =
  let oc = open_out file in
  output_string oc text;
  close_out oc

let system_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "massbft" -> Ok Config.Massbft
    | "baseline" -> Ok Config.Baseline
    | "geobft" -> Ok Config.Geobft
    | "steward" -> Ok Config.Steward
    | "iss" -> Ok Config.Iss
    | "br" -> Ok Config.Br
    | "ebr" -> Ok Config.Ebr
    | other ->
        (* One line, exit 2 — same contract as a malformed plan file, and
           terser than cmdliner's usage dump for the common typo. *)
        prerr_endline
          (Printf.sprintf
             "massbft: unknown system %S (known: massbft, baseline, geobft, \
              steward, iss, br, ebr)"
             other);
        exit usage_error
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Config.system_name s))

let workload_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "ycsb-a" | "ycsba" -> Ok W.Ycsb_a
    | "ycsb-b" | "ycsbb" -> Ok W.Ycsb_b
    | "smallbank" -> Ok W.Smallbank
    | "tpcc" | "tpc-c" -> Ok W.Tpcc
    | other -> Error (`Msg (Printf.sprintf "unknown workload %S" other))
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt (W.kind_name w))

(* ---- experiment options ---- *)

let system_arg =
  Arg.(value & opt system_conv Config.Massbft & info [ "system"; "s" ]
         ~doc:"System under test: massbft|baseline|geobft|steward|iss|br|ebr.")

let workload_arg =
  Arg.(value & opt workload_conv W.Ycsb_a & info [ "workload"; "w" ]
         ~doc:"Workload: ycsb-a|ycsb-b|smallbank|tpcc.")

let nodes_arg =
  Arg.(value & opt int 7 & info [ "nodes"; "n" ] ~doc:"Nodes per group.")

let groups_arg =
  Arg.(value & opt int 3 & info [ "groups"; "g" ]
         ~doc:"Number of groups (data centers).")

let worldwide_arg =
  Arg.(value & flag & info [ "worldwide" ]
         ~doc:"Use the worldwide RTT matrix (HK/London/SV) instead of nationwide.")

let warmup_arg =
  Arg.(value & opt float 4.0 & info [ "warmup" ] ~doc:"Warm-up, simulated seconds.")

let scale_arg =
  Arg.(value & opt float 0.1 & info [ "scale" ]
         ~doc:"Workload keyspace scale in (0,1]; 1.0 is the paper's full size.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

(* ---- run ---- *)

let run_cmd =
  let duration =
    Arg.(value & opt float 12.0 & info [ "duration"; "d" ]
           ~doc:"Measurement window, simulated seconds.")
  in
  let latency_probe =
    Arg.(value & flag & info [ "latency-probe" ]
           ~doc:"Light-load run (small batches) for latency measurement.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Also record a structured trace, write it to $(docv) as \
                 Chrome trace_event JSON (open in Perfetto), and print the \
                 per-entry critical-path report.")
  in
  let metrics_file =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Also sample resource metrics and write them to $(docv): \
                 Prometheus text exposition by default, the JSON export \
                 for a .json destination, the per-tick CSV for .csv. \
                 Prints each group leader's WAN-uplink and CPU utilization \
                 and the saturation report naming the binding resource.")
  in
  let faults_file =
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"FILE"
           ~doc:"Inject the fault schedule in $(docv) (one event per line, \
                 see DESIGN.md \"Fault model\"; times are absolute simulated \
                 seconds, so the warm-up window precedes time warmup).")
  in
  let adversary_file =
    Arg.(value & opt (some string) None & info [ "adversary" ] ~docv:"FILE"
           ~doc:"Arm the Byzantine adversary plan in $(docv) (one strategy \
                 per line, see DESIGN.md \"Adversary model\"; absolute \
                 simulated seconds, like --faults).")
  in
  let reconfig_file =
    Arg.(value & opt (some string) None & info [ "reconfig" ] ~docv:"FILE"
           ~doc:"Execute the live-membership reconfiguration plan in $(docv) \
                 (one \"@TIME COMMAND\" per line, see DESIGN.md \
                 \"Reconfiguration\"; absolute simulated seconds, like \
                 --faults). Joining slots and groups are provisioned before \
                 the cluster starts and activated at epoch boundaries after \
                 state transfer.")
  in
  let prof_file =
    Arg.(value & opt (some string) None & info [ "prof" ] ~docv:"FILE"
           ~doc:"Also self-profile the simulator's host-side execution \
                 (wall time, events and GC deltas per scheduler slice), \
                 print the report and write it as JSON to $(docv). With \
                 --trace, the exported trace additionally carries the host \
                 timeline.")
  in
  let action system workload nodes groups worldwide duration warmup scale seed
      latency_probe trace_file metrics_file faults_file adversary_file
      reconfig_file prof_file =
    let cfg =
      {
        (Config.default ~system ~workload ()) with
        Config.workload_scale = scale;
        seed = Int64.of_int seed;
      }
    in
    let spec =
      if worldwide then Clusters.worldwide ~nodes_per_group:nodes ()
      else Clusters.nationwide ~nodes_per_group:nodes ~groups ()
    in
    let load what parse validate =
      Option.map (parse_scenario_or_die ~what ~parse ~validate ~spec)
    in
    let faults =
      load "fault schedule" Fault_spec.of_string Fault_spec.validate faults_file
    in
    let adversary =
      load "adversary plan" Adv_spec.of_string Adv_spec.validate adversary_file
    in
    let reconfig =
      load "reconfiguration plan" Reconfig_spec.of_string
        Reconfig_spec.validate reconfig_file
    in
    Option.iter (check_writable ~flag:"--trace") trace_file;
    Option.iter (check_writable ~flag:"--metrics") metrics_file;
    Option.iter (check_writable ~flag:"--prof") prof_file;
    let sink = Option.map (fun _ -> Trace.create ()) trace_file in
    let prof = Option.map (fun _ -> Prof.create ()) prof_file in
    let obs =
      Option.map (fun _ -> Sampler.create (Obs_registry.create ())) metrics_file
    in
    let cfg = if latency_probe then Runner.latency_probe cfg else cfg in
    let r =
      Runner.run ~duration ~warmup ?trace:sink ?obs ?prof ?faults ?adversary
        ?reconfig ~spec ~cfg ()
    in
    Format.printf "%a@." Runner.pp_result r;
    List.iter
      (fun (p, ms) -> Format.printf "  %-20s %8.2f ms@." p ms)
      r.Runner.phases_ms;
    List.iteri
      (fun g t -> Format.printf "  group %d: %.2f ktps@." g t)
      r.Runner.per_group_ktps;
    (match (metrics_file, obs) with
    | Some file, Some s ->
        List.iteri
          (fun g (wan, cpu) ->
            Format.printf "  leader g%d: wan_up busy %.2f  cpu %.2f@." g wan cpu)
          (List.combine r.Runner.leader_wan_busy r.Runner.leader_cpu_util);
        print_string (Saturation.report s);
        write_file file
          (if Filename.check_suffix file ".json" then
             Exposition.json (Sampler.registry s)
           else if Filename.check_suffix file ".csv" then Sampler.csv s
           else Exposition.prometheus (Sampler.registry s));
        Format.printf "metrics: wrote %s (%d series, %d ticks)@." file
          (List.length (Obs_registry.collect (Sampler.registry s)))
          (Sampler.tick_count s)
    | _ -> ());
    (match (prof_file, prof) with
    | Some file, Some p ->
        Prof_export.write_json p file;
        Format.printf "prof: wrote %s@." file;
        print_string (Prof_export.text (Prof.report p))
    | _ -> ());
    match (trace_file, sink) with
    | Some file, Some tr ->
        let host = Option.map Prof_export.to_trace prof in
        Trace_export.write_chrome_json ?host tr file;
        Format.printf
          "trace: wrote %s (%d events retained, %d emitted, %d dropped%s)@."
          file (Trace.length tr) (Trace.emitted tr) (Trace.dropped tr)
          (if host = None then "" else ", host timeline attached");
        print_string (Trace_export.critical_path_report tr)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment on the simulated geo-cluster.")
    Term.(
      const action $ system_arg $ workload_arg $ nodes_arg $ groups_arg
      $ worldwide_arg $ duration $ warmup_arg $ scale_arg $ seed_arg
      $ latency_probe $ trace_file $ metrics_file $ faults_file
      $ adversary_file $ reconfig_file $ prof_file)

(* ---- drill ---- *)

let drill_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ]
           ~doc:"Chaos seed: deterministically generates the fault schedule \
                 (same seed, system and cluster shape => byte-identical \
                 schedule and run).")
  in
  let seed_range_conv =
    let parse s =
      let err () =
        Error
          (`Msg (Printf.sprintf "bad seed range %S (expected N or A..B)" s))
      in
      match String.index_opt s '.' with
      | None -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok (1, n)
          | _ -> err ())
      | Some i when i + 1 < String.length s && s.[i + 1] = '.' -> (
          let a = String.sub s 0 i in
          let b = String.sub s (i + 2) (String.length s - i - 2) in
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b when a <= b -> Ok (a, b)
          | _ -> err ())
      | Some _ -> err ()
    in
    Arg.conv (parse, fun fmt (a, b) -> Format.fprintf fmt "%d..%d" a b)
  in
  let seeds =
    Arg.(value & opt (some seed_range_conv) None & info [ "seeds" ]
           ~docv:"RANGE"
           ~doc:"Campaign mode: run a seed range instead of --seed; $(docv) \
                 is either N (meaning 1..N) or A..B inclusive.")
  in
  (* A comma-separated list drawn from [known]. *)
  let names_conv what known =
    let parse s =
      let names =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      if names = [] then Error (`Msg (Printf.sprintf "empty %s list" what))
      else
        match List.find_opt (fun n -> not (List.mem n known)) names with
        | Some bad ->
            Error
              (`Msg
                 (Printf.sprintf "unknown %s %S (known: %s)" what bad
                    (String.concat ", " known)))
        | None -> Ok names
    in
    Arg.conv
      (parse, fun fmt l -> Format.pp_print_string fmt (String.concat "," l))
  in
  let strategies_conv = names_conv "strategy" Adv_spec.kind_names in
  let kinds_conv = names_conv "reconfiguration kind" Chaos.reconfig_kinds in
  let adversaries =
    Arg.(value & opt (some strategies_conv) None & info [ "adversary" ]
           ~docv:"STRAT[,STRAT...]"
           ~doc:"Drill Byzantine adversary strategies instead of random \
                 benign faults: each strategy becomes a campaign axis point \
                 whose generated plan (plus any trigger faults) runs per \
                 system and seed. A run passes when it upholds every \
                 invariant, or when each safety violation is pinned on a \
                 provably-equivocating node by a verified \
                 conflicting-signed-message evidence pair.")
  in
  let reconfigs =
    Arg.(value & opt (some kinds_conv) None & info [ "reconfig" ]
           ~docv:"KIND[,KIND...]"
           ~doc:"Drill live membership reconfiguration: each kind becomes a \
                 campaign axis point whose generated membership-change \
                 scenario (plus paired chaos — joins race a mid-transfer \
                 crash of the joining hardware) runs per system and seed. \
                 Composes with --adversary to drill Byzantine behaviour \
                 during a membership change. The plan is the scenario's \
                 identity and is never shrunk.")
  in
  let all_systems =
    Arg.(value & flag & info [ "all-systems" ]
           ~doc:"Drill every system, not just --system.")
  in
  let duration =
    Arg.(value & opt float 10.0 & info [ "duration"; "d" ]
           ~doc:"Simulated seconds per run (extended automatically past the \
                 schedule's heal time for the liveness verdict).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Short runs (8 simulated seconds) for CI smoke campaigns.")
  in
  let scale =
    Arg.(value & opt float 0.01 & info [ "scale" ]
           ~doc:"Workload keyspace scale in (0,1] (small by default: drills \
                 test fault handling, not peak throughput).")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ]
           ~doc:"Skip delta-debugging shrink of failing schedules.")
  in
  let artifacts =
    Arg.(value & opt (some string) None & info [ "artifacts" ] ~docv:"DIR"
           ~doc:"Write each failing schedule (and its shrunk form) to \
                 $(docv)/fail-SYSTEM-seedS.faults for CI upload.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a structured trace of the single-seed drill and \
                 write Chrome trace_event JSON to $(docv); fault injections \
                 appear as 'fault'-category spans. Rejected with --seeds.")
  in
  let action system all_systems nodes groups worldwide scale seed seeds
      adversaries reconfigs duration quick no_shrink artifacts trace_file =
    (* A trace records one seed's runs; a campaign would bury them. *)
    let campaign_mode = seeds <> None in
    (match trace_file with
    | Some _ when campaign_mode ->
        prerr_endline
          "massbft: --trace records a single-seed drill; it cannot be \
           combined with --seeds";
        exit usage_error
    | Some file -> check_writable ~flag:"--trace" file
    | None -> ());
    let duration = if quick then 8.0 else duration in
    let cfg =
      { (Config.default ~system ()) with Config.workload_scale = scale }
    in
    let spec =
      if worldwide then Clusters.worldwide ~nodes_per_group:nodes ()
      else Clusters.nationwide ~nodes_per_group:nodes ~groups ()
    in
    (* An adversary run is bad only when a violation lacks a verified
       evidence pair: a caught-and-provable equivocation is the
       accountability machinery succeeding, a silent or unprovable one
       is a real bug. Plain fault runs keep the strict criterion. *)
    let bad (r : Chaos.drill_result) =
      Chaos.failed r.Chaos.outcome
      && (r.Chaos.strategy = None
         || not (Chaos.accountable r.Chaos.outcome))
    in
    let artifact_stem (r : Chaos.drill_result) =
      Printf.sprintf "fail-%s%s%s-seed%Ld"
        (String.lowercase_ascii (Config.system_name r.Chaos.system))
        (match r.Chaos.strategy with None -> "" | Some s -> "-" ^ s)
        (match r.Chaos.reconfig_kind with None -> "" | Some k -> "-" ^ k)
        r.Chaos.seed
    in
    (* Commented "# shrunk to N event(s):" lines after a loadable plan. *)
    let shrunk_note to_line = function
      | Some evs ->
          Printf.sprintf "# shrunk to %d event(s):\n%s" (List.length evs)
            (String.concat ""
               (List.map (fun e -> "#   " ^ to_line e ^ "\n") evs))
      | None -> ""
    in
    let save_artifact (r : Chaos.drill_result) =
      match artifacts with
      | None -> ()
      | Some dir ->
          (try Unix.mkdir dir 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let write ?(note = "") ext text =
            let file = Filename.concat dir (artifact_stem r ^ ext) in
            write_file file text;
            Format.printf "artifact: wrote %s%s@." file note
          in
          let o = r.Chaos.outcome in
          write ".faults"
            (Printf.sprintf "# %s\n# %s\n%s%s"
               (Chaos.repro_line ?adversary:r.Chaos.strategy
                  ?reconfig:r.Chaos.reconfig_kind ~seed:r.Chaos.seed
                  ~system:r.Chaos.system ())
               (String.concat "; "
                  (List.map Massbft_faults.Invariants.violation_to_string
                     o.Chaos.violations))
               (Fault_spec.to_string o.Chaos.schedule)
               (shrunk_note Fault_spec.event_to_string r.Chaos.shrunk));
          (* The adversary and membership plans reproduce through
             `run --adversary` / `run --reconfig`, so each ships as its
             own loadable file. *)
          if o.Chaos.adversary <> [] then
            write ".adversary"
              (Adv_spec.to_string o.Chaos.adversary
              ^ shrunk_note Adv_spec.event_to_string r.Chaos.shrunk_adversary);
          if o.Chaos.reconfig <> [] then
            write ".reconfig" (Reconfig_spec.to_string o.Chaos.reconfig);
          match o.Chaos.evidence with
          | [] -> ()
          | pairs ->
              write ".evidence"
                ~note:(Printf.sprintf " (%d conflict pairs)" (List.length pairs))
                (String.concat "" (List.map Evidence.pair_to_string pairs))
    in
    let report (r : Chaos.drill_result) =
      Format.printf "%a@." Chaos.pp_drill r;
      if Chaos.failed r.Chaos.outcome then begin
        List.iter
          (fun v ->
            Format.printf "  violation: %s@."
              (Massbft_faults.Invariants.violation_to_string v))
          r.Chaos.outcome.Chaos.violations;
        (match r.Chaos.outcome.Chaos.evidence with
        | [] -> ()
        | pairs ->
            Format.printf "  evidence: %d verified conflict pair(s)%s@."
              (List.length pairs)
              (if Chaos.accountable r.Chaos.outcome then
                 " — every violation accounted for"
               else ""));
        let events title to_line evs =
          Format.printf "  %s:@." title;
          List.iter (fun e -> Format.printf "    %s@." (to_line e)) evs
        in
        let shrunk prefix to_line = function
          | Some evs ->
              events
                (Printf.sprintf "%sshrunk to %d event(s)" prefix
                   (List.length evs))
                to_line evs
          | None -> ()
        in
        let o = r.Chaos.outcome in
        if o.Chaos.adversary <> [] then begin
          events "adversary" Adv_spec.event_to_string o.Chaos.adversary;
          shrunk "adversary " Adv_spec.event_to_string r.Chaos.shrunk_adversary
        end;
        if o.Chaos.reconfig <> [] then
          events "reconfiguration" Reconfig_spec.event_to_string
            o.Chaos.reconfig;
        events "schedule" Fault_spec.event_to_string o.Chaos.schedule;
        shrunk "" Fault_spec.event_to_string r.Chaos.shrunk;
        Format.printf "  repro: %s@."
          (Chaos.repro_line ?adversary:r.Chaos.strategy
             ?reconfig:r.Chaos.reconfig_kind ~seed:r.Chaos.seed
             ~system:r.Chaos.system ());
        save_artifact r
      end
    in
    let seeds =
      match seeds with
      | Some (lo, hi) -> List.init (hi - lo + 1) (fun i -> Int64.of_int (lo + i))
      | None -> [ Int64.of_int seed ]
    in
    let sink = Option.map (fun _ -> Trace.create ()) trace_file in
    let c =
      Chaos.campaign ~duration ?trace:sink ~shrink_failures:(not no_shrink)
        ~systems:(if all_systems then Config.all_systems else [ system ])
        ~adversaries:(Option.value ~default:[] adversaries)
        ~reconfigs:(Option.value ~default:[] reconfigs)
        ~on_run:report ~spec ~cfg ~seeds ()
    in
    let hard = List.length (List.filter bad c.Chaos.results) in
    (match (trace_file, sink) with
    | Some file, Some tr ->
        Trace_export.write_chrome_json tr file;
        Format.printf "trace: wrote %s (%d events retained, %d dropped)@." file
          (Trace.length tr) (Trace.dropped tr)
    | _ -> ());
    (* Only campaign mode summarizes: a single-seed drill's report lines
       are its whole output. *)
    if campaign_mode then
      Format.printf "campaign: %d runs, %d failed%s@." c.Chaos.total hard
        (let accounted = List.length c.Chaos.failures - hard in
         if accounted > 0 then
           Printf.sprintf " (+%d accountable, evidence on file)" accounted
         else "");
    if hard > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "drill"
       ~doc:
         "Chaos drill: generate a seeded random fault schedule (or, with \
          --adversary, a Byzantine strategy plan; with --reconfig, a live \
          membership-change scenario under chaos), inject it, and check \
          safety and liveness invariants; failing schedules and plans are \
          shrunk to minimal reproducers. Exits nonzero on any violation a \
          verified evidence pair cannot account for.")
    Term.(
      const action $ system_arg $ all_systems $ nodes_arg $ groups_arg
      $ worldwide_arg $ scale $ seed $ seeds $ adversaries $ reconfigs
      $ duration $ quick $ no_shrink $ artifacts $ trace_file)

(* ---- bench ---- *)

let bench_cmd =
  let full =
    Arg.(value & flag & info [ "full" ]
           ~doc:"Full mode: macro rows at full scale over 4 + 12 simulated \
                 seconds, plus MassBFT at 5 groups. The default quick mode \
                 runs 2 + 5 s macro rows at 1% scale. Both modes run the \
                 same micro-benchmarks. The gate \
                 compares against committed baselines that were measured \
                 in full mode.")
  in
  let check_file =
    Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FILE"
           ~doc:"Compare this run's micro results against the baseline \
                 report $(docv) (a committed BENCH_<date>.json) and exit \
                 non-zero when any benchmark regressed past the tolerance \
                 or disappeared from the suite.")
  in
  let tolerance =
    Arg.(value & opt float (100.0 *. Bench_check.default_tolerance)
         & info [ "tolerance" ] ~docv:"PCT"
           ~doc:"Per-benchmark tolerance for --check, in percent.")
  in
  let json_file =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write this run's macro rows and micros to $(docv) in the \
                 Bench_report schema, as a baseline report.")
  in
  let action full check_file tolerance json_file =
    if tolerance <= 0.0 then begin
      prerr_endline "massbft: option '--tolerance': must be positive";
      exit 124
    end;
    Option.iter (check_writable ~flag:"--json") json_file;
    let quick = not full in
    let mode = if quick then "quick" else "full" in
    (* Every bench runs one sequence: the macro rows first, from the
       pristine process, then the micros. On a 2-vCPU host the rows read
       10-45% slower after the micros, and warm micro figures depend on
       the heap the process already has, so a check measures its micros
       in the state the committed baseline recorded them in. *)
    Printf.printf "=== macro benchmarks (YCSB-A, nationwide, %s mode) ===\n" mode;
    let macros =
      List.map
        (fun (system, groups) ->
          let m = Bench_report.run_macro ~quick ~groups ~system () in
          Printf.printf
            "  %-9s %d groups %8.2f ktps  %6.2fs wall  %6.2f sim-s/wall-s  \
             %8.0f txns/wall-s\n%!"
            m.system m.groups m.throughput_ktps m.wall_s m.sim_s_per_wall_s
            m.committed_txns_per_wall_s;
          m)
        (Bench_report.row_plan ~quick)
    in
    print_newline ();
    let micros = Massbft_bench.Micros.run_micro () in
    Option.iter
      (fun file ->
        let tm = Unix.localtime (Unix.time ()) in
        let date =
          Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
            (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
        in
        write_file file
          (Bench_report.to_json ~date ~mode ~micros ~macros ());
        Printf.printf "wrote %s\n%!" file)
      json_file;
    match check_file with
    | None -> ()
    | Some file ->
        let baseline =
          try Bench_check.load_baseline file
          with Failure msg ->
            prerr_endline ("massbft: bad baseline: " ^ msg);
            exit 1
        in
        let current =
          List.map
            (fun (m : Bench_report.micro) -> (m.m_name, m.ns_per_run))
            micros
        in
        let result =
          Bench_check.compare_micros ~tolerance:(tolerance /. 100.0) ~baseline
            ~current ()
        in
        print_string (Bench_check.render ~baseline result);
        if not (Bench_check.passed result) then exit 1
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the YCSB-A macro rows, then the micro-benchmark suite; with \
          --json, record both as a baseline report; with --check, gate the \
          micro results against a committed baseline report and exit \
          non-zero on regressions.")
    Term.(const action $ full $ check_file $ tolerance $ json_file)

(* ---- figures ---- *)

let figures_cmd =
  let ids =
    Arg.(value & pos_all string [] & info []
           ~doc:"Figure ids to run (default: all). See 'massbft list'.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Short windows and reduced sweeps (for smoke runs).")
  in
  let action ids quick =
    let selected =
      match ids with
      | [] -> Figures.all
      | ids ->
          List.filter (fun (id, _, _) -> List.mem id ids) Figures.all
    in
    if selected = [] then prerr_endline "no matching figures (see 'massbft list')"
    else
      List.iter
        (fun (id, _, (f : ?quick:bool -> unit -> Figures.figure)) ->
          let t0 = Unix.gettimeofday () in
          let fig = f ~quick () in
          Format.printf "%a[%s took %.1fs wall-clock]@.@." Figures.pp_figure
            fig id
            (Unix.gettimeofday () -. t0))
        selected
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const action $ ids $ quick)

let list_cmd =
  let action () =
    List.iter
      (fun (id, doc, _) -> Format.printf "%-8s %s@." id doc)
      Figures.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the reproducible figures.")
    Term.(const action $ const ())

(* ---- plan ---- *)

let plan_cmd =
  let n1 = Arg.(required & opt (some int) None & info [ "n1" ] ~doc:"Sender group size.") in
  let n2 = Arg.(required & opt (some int) None & info [ "n2" ] ~doc:"Receiver group size.") in
  let action n1 n2 =
    let p = Massbft.Transfer_plan.generate ~n1 ~n2 in
    Format.printf
      "transfer plan %d -> %d: n_total=%d n_data=%d n_parity=%d per-sender=%d \
       per-receiver=%d redundancy=%.3f entry copies@."
      n1 n2 p.Massbft.Transfer_plan.n_total p.Massbft.Transfer_plan.n_data
      p.Massbft.Transfer_plan.n_parity p.Massbft.Transfer_plan.nc_send
      p.Massbft.Transfer_plan.nc_recv
      (Massbft.Transfer_plan.redundancy p);
    for s = 0 to n1 - 1 do
      Format.printf "  sender %2d ships:" s;
      List.iter
        (fun (c, r) -> Format.printf " chunk %d->node %d" c r)
        (Massbft.Transfer_plan.sends_of p ~sender:s);
      Format.printf "@."
    done
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Print the Algorithm 1 transfer plan for a group pair.")
    Term.(const action $ n1 $ n2)

let main =
  Cmd.group
    (Cmd.info "massbft" ~version:"1.0.0"
       ~doc:
         "MassBFT: fast and scalable geo-distributed BFT consensus \
          (reproduction of the ICDE 2025 paper).")
    [ run_cmd; bench_cmd; drill_cmd; figures_cmd; list_cmd; plan_cmd ]

let () = exit (Cmd.eval main)
