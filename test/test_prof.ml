(* Tests for massbft_prof: the no-perturbation contract (profiled runs
   stay byte-identical to the recorded goldens), the slice log's
   coverage of the run, the report/export shapes, and the overhead
   budget on the macro row. *)

module Sim = Massbft_sim.Sim
module Prof = Massbft_prof.Prof
module Prof_export = Massbft_prof.Prof_export
module Trace = Massbft_trace.Trace
module Trace_export = Massbft_trace.Trace_export
module Json = Massbft_util.Json
module Runner = Massbft_harness.Runner
module Clusters = Massbft_harness.Clusters
module Config = Massbft.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* No perturbation: goldens stay byte-identical with profiling on      *)
(* ------------------------------------------------------------------ *)

let golden_path system = "golden/" ^ Golden_fixture.file_of_system system

let test_goldens_unperturbed () =
  List.iter
    (fun system ->
      let p = Prof.create () in
      let g = Golden_fixture.capture ~run:(Prof.run p) ~system () in
      let unprofiled = Golden_fixture.load (golden_path system) in
      check_string
        (Config.system_name system ^ " profiled run matches golden")
        (Golden_fixture.to_string { unprofiled with Golden_fixture.exports = None })
        (Golden_fixture.to_string g);
      (* The committed count equals the recorded (unprofiled) one. *)
      check_int
        (Config.system_name system ^ " committed count unperturbed")
        unprofiled.Golden_fixture.committed g.Golden_fixture.committed;
      (* ... and the profiler actually collected: it slices at
         lookahead width, so a 6 s run has many slices. *)
      let r = Prof.report p in
      check_bool
        (Config.system_name system ^ " profiler collected slices")
        true
        (r.Prof.rp_slices > 1);
      check_bool
        (Config.system_name system ^ " profiler counted events")
        true (r.Prof.rp_events > 0))
    Config.all_systems

(* ------------------------------------------------------------------ *)
(* Slicing: dispatch order identical under prof                       *)
(* ------------------------------------------------------------------ *)

let test_seq_slicing_preserves_order () =
  (* The same event program, driven by Sim.run and by Prof.run: the
     dispatch log (event id, virtual now at fire) must be identical. *)
  let program sim log =
    for i = 0 to 99 do
      Sim.at sim
        (0.001 *. float_of_int (i mod 10))
        (fun () -> log := (i, Sim.now sim) :: !log)
    done;
    (* A cross-window chain: each event schedules the next beyond the
       lookahead so slicing boundaries are actually crossed. *)
    let rec chain n () =
      log := (1000 + n, Sim.now sim) :: !log;
      if n < 20 then Sim.after sim 0.015 (chain (n + 1))
    in
    Sim.at sim 0.0 (chain 0)
  in
  let run_once ~prof () =
    let sim = Sim.create ~shards:2 ~lookahead:0.01 () in
    let log = ref [] in
    let p = Prof.create () in
    program sim log;
    if prof then Prof.run p sim ~until:0.5 else Sim.run sim ~until:0.5;
    (List.rev !log, p)
  in
  let plain, _ = run_once ~prof:false () in
  let profiled, p = run_once ~prof:true () in
  check_bool "dispatch logs identical" true (plain = profiled);
  check_int "all events fired" (100 + 21) (List.length plain);
  let r = Prof.report p in
  check_bool "sliced at lookahead width" true (r.Prof.rp_slices >= 30)

let test_seq_run_infinite_until () =
  (* until = infinity must profile as a single slice, not loop. *)
  let sim = Sim.create () in
  let p = Prof.create () in
  let fired = ref 0 in
  Sim.at sim 1.0 (fun () -> incr fired);
  Sim.at sim 2.0 (fun () -> incr fired);
  Prof.run p sim ~until:infinity;
  check_int "events fired" 2 !fired;
  let r = Prof.report p in
  check_int "single slice" 1 r.Prof.rp_slices;
  check_int "events attributed" 2 r.Prof.rp_events

(* ------------------------------------------------------------------ *)
(* Report shapes on a 2-shard run                                      *)
(* ------------------------------------------------------------------ *)

let run_two_shard_profiled () =
  let sim = Sim.create ~shards:2 ~lookahead:0.01 () in
  let s0 = Sim.shard sim 0 and s1 = Sim.shard sim 1 in
  let p = Prof.create () in
  let rec ping me peer () =
    Sim.at peer (Sim.now me +. 0.012) (ping peer me)
  in
  Sim.at s0 0.0 (ping s0 s1);
  Sim.at s1 0.0 (ping s1 s0);
  Prof.run p sim ~until:1.0;
  (p, Sim.dispatched_total sim)

(* The slice log covers the run exactly: consecutive slices end at
   strictly increasing simulated times, the last at [until]; their
   events add up to what the sim dispatched and their walls to the
   report's wall time. *)
let test_slices_cover_run () =
  let p, dispatched = run_two_shard_profiled () in
  let ss = Prof.slices p in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a.Prof.s_end < b.Prof.s_end && increasing rest
    | _ -> true
  in
  check_bool "slice ends strictly increasing" true (increasing ss);
  Alcotest.(check (float 0.0))
    "last slice ends at until" 1.0
    (List.nth ss (List.length ss - 1)).Prof.s_end;
  check_int "slice events sum to dispatched" dispatched
    (List.fold_left (fun acc s -> acc + s.Prof.s_events) 0 ss);
  Alcotest.(check (float 0.0))
    "slice walls sum to wall" (Prof.report p).Prof.rp_wall_s
    (List.fold_left (fun acc s -> acc +. s.Prof.s_wall) 0.0 ss)

let test_report_text_and_json_shape () =
  let p, dispatched = run_two_shard_profiled () in
  let r = Prof.report p in
  check_int "two shards" 2 r.Prof.rp_shards;
  check_int "every event counted" dispatched r.Prof.rp_events;
  check_int "slice events sum to total" r.Prof.rp_events
    (List.fold_left (fun acc s -> acc + s.Prof.s_events) 0 (Prof.slices p));
  check_bool "sliced at lookahead width" true (r.Prof.rp_slices >= 90);
  let text = Prof_export.text r in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  check_bool "text reports wall and gc" true
    (contains text "wall" && contains text "gc:");
  (* The JSON export parses with the repo's own reader and carries the
     documented keys — the same shape validation CI performs. *)
  let doc = Json.parse (Prof_export.json p) in
  let mem k =
    match Json.member k doc with
    | Some _ -> true
    | None -> false
  in
  List.iter
    (fun k -> check_bool ("prof json has " ^ k) true (mem k))
    [
      "schema_version"; "shards"; "slices"; "lookahead_s"; "wall_s";
      "sim_end_s"; "events"; "events_per_slice"; "gc"; "slice_log";
    ];
  List.iter
    (fun k -> check_bool ("prof json lacks " ^ k) false (mem k))
    [ "attributed_s"; "attributed_share"; "attribution" ];
  (match Json.member "schema_version" doc with
  | Some (Json.Num v) ->
      check_int "schema version" Prof_export.schema_version (int_of_float v)
  | _ -> Alcotest.fail "schema_version missing");
  match Option.bind (Json.member "slice_log" doc) Json.to_list with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "slice_log empty"

let test_host_trace_export () =
  let p, _ = run_two_shard_profiled () in
  let host = Prof_export.to_trace p in
  check_bool "host trace has events" true (Trace.length host > 0);
  check_int "host trace drops nothing" 0 (Trace.dropped host);
  (* Dual-timeline export: host pids live in the >= 1000 namespace,
     sim pids below it; both present in one parseable document. *)
  let sim_tr = Trace.create () in
  Trace.span sim_tr ~cat:"sim" ~gid:0 ~b:0.0 ~e:1.0 "marker";
  let doc = Json.parse (Trace_export.to_chrome_json ~host sim_tr) in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents"
  in
  let pids =
    List.filter_map
      (fun e -> Option.bind (Json.member "pid" e) Json.to_float)
      events
  in
  check_bool "has host pid" true (List.mem 1000.0 pids);
  check_bool "has sim pids" true (List.exists (fun pid -> pid < 1000.0) pids);
  (* Host span timestamps are non-negative host-seconds. *)
  List.iter
    (fun (ev : Trace.event) ->
      check_bool "host ts >= 0" true (ev.Trace.ts >= 0.0))
    (Trace.events host)

(* ------------------------------------------------------------------ *)
(* Registry reuse                                                      *)
(* ------------------------------------------------------------------ *)

let test_registry_series () =
  let p, _ = run_two_shard_profiled () in
  let reg = Massbft_obs.Registry.create () in
  Prof.register p reg;
  let samples = Massbft_obs.Registry.collect reg in
  let find name label =
    List.find_opt
      (fun (s : Massbft_obs.Registry.sample) ->
        s.Massbft_obs.Registry.name = name
        && (label = [] || s.Massbft_obs.Registry.labels = label))
      samples
  in
  (match find "massbft_prof_wall_seconds" [] with
  | Some { Massbft_obs.Registry.point = Massbft_obs.Registry.P_gauge v; _ } ->
      check_bool "wall seconds positive" true (v > 0.0)
  | _ -> Alcotest.fail "massbft_prof_wall_seconds missing");
  match find "massbft_prof_slices_total" [] with
  | Some { Massbft_obs.Registry.point = Massbft_obs.Registry.P_counter n; _ }
    ->
      check_bool "slices counted" true (n > 0)
  | _ -> Alcotest.fail "massbft_prof_slices_total missing"

(* ------------------------------------------------------------------ *)
(* Macro row: overhead budget                                          *)
(* ------------------------------------------------------------------ *)

(* The acceptance number for the MassBFT macro row: profiling overhead
   within budget. Overhead is judged on the process's CPU time, not wall time: dune
   runs test executables side by side, and a neighbour taking the core
   stretches wall time without adding CPU time to this process. Plain
   and profiled runs alternate so host drift hits both sides alike, and
   each side keeps its fastest run, the one least disturbed by cache
   and frequency noise. The default bound is lenient (15%, min-of-5
   each); MASSBFT_STRICT_PERF=1 asserts the real 2% budget (min-of-7),
   which holds on an idle host. *)
let test_macro_overhead () =
  let strict =
    match Sys.getenv_opt "MASSBFT_STRICT_PERF" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false
  in
  let runs = if strict then 7 else 5 in
  (* MassBFT at the quick macro rows' scale: YCSB-A at 1%, 1 + 3 sim-s. *)
  let cfg =
    {
      (Config.default ~system:Config.Massbft
         ~workload:Massbft_workload.Workload.Ycsb_a ())
      with
      Config.workload_scale = 0.01;
    }
  in
  let spec = Clusters.nationwide () in
  let cpu_s ?prof () =
    let t0 = Sys.time () in
    ignore (Runner.run ~warmup:1.0 ~duration:3.0 ?prof ~spec ~cfg ());
    Sys.time () -. t0
  in
  let plain = ref infinity and profiled = ref infinity in
  let p = Prof.create () in
  for _ = 1 to runs do
    plain := Float.min !plain (cpu_s ());
    profiled := Float.min !profiled (cpu_s ~prof:p ())
  done;
  check_bool "slices profiled" true ((Prof.report p).Prof.rp_slices > 0);
  let budget = if strict then 0.02 else 0.15 in
  let overhead = (!profiled -. !plain) /. !plain in
  check_bool
    (Printf.sprintf "profiling overhead %.1f%% within %.0f%% budget"
       (100.0 *. overhead) (100.0 *. budget))
    true
    (overhead <= budget)

let () =
  Alcotest.run "massbft_prof"
    [
      ( "no-perturbation",
        [
          Alcotest.test_case "goldens byte-identical with prof" `Slow
            test_goldens_unperturbed;
          Alcotest.test_case "seq slicing preserves dispatch order" `Quick
            test_seq_slicing_preserves_order;
          Alcotest.test_case "run ~until:infinity single slice" `Quick
            test_seq_run_infinite_until;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "report text and json shape" `Quick
            test_report_text_and_json_shape;
          Alcotest.test_case "host-timeline trace export" `Quick
            test_host_trace_export;
          Alcotest.test_case "registry series" `Quick test_registry_series;
          Alcotest.test_case "slice log covers the run" `Quick
            test_slices_cover_run;
        ] );
      ( "macro",
        [
          Alcotest.test_case "overhead budget" `Slow test_macro_overhead;
        ] );
    ]
