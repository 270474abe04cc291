(* Tests for massbft_obs: the instrument registry, the exposition
   formats (including a Prometheus text round-trip through a parser
   written here), the in-sim sampler, and the saturation verdicts the
   acceptance criteria pin (Baseline → leader WAN uplink, large-group
   MassBFT → CPU). *)

module Registry = Massbft_obs.Registry
module Exposition = Massbft_obs.Exposition
module Sampler = Massbft_obs.Sampler
module Saturation = Massbft_obs.Saturation
module Sim = Massbft_sim.Sim
module Clusters = Massbft_harness.Clusters
module Runner = Massbft_harness.Runner
module Config = Massbft.Config
module Json = Massbft_util.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~name:"reqs_total" [ ("group", "0") ] in
  Registry.inc c;
  Registry.inc ~by:5 c;
  check_int "counter value" 6 (Registry.counter_value c);
  check_bool "negative increment rejected" true
    (raises_invalid (fun () -> Registry.inc ~by:(-1) c));
  match Registry.collect reg with
  | [ s ] ->
      check_string "name" "reqs_total" s.Registry.name;
      check_bool "point" true (s.Registry.point = Registry.P_counter 6)
  | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l)

let test_gauge_basics () =
  let reg = Registry.create () in
  let g = Registry.gauge reg ~name:"depth" [] in
  Registry.set g 3.5;
  check_float "gauge value" 3.5 (Registry.gauge_value g);
  Registry.set g 1.0;
  check_float "last write wins" 1.0 (Registry.gauge_value g)

let test_polled_instruments () =
  let reg = Registry.create () in
  let n = ref 0 in
  Registry.counter_fn reg ~name:"polled_total" [] (fun () -> !n);
  Registry.gauge_fn reg ~name:"polled_depth" [] (fun () ->
      float_of_int (2 * !n));
  n := 7;
  List.iter
    (fun s ->
      match (s.Registry.name, s.Registry.point) with
      | "polled_total", p -> check_bool "counter polled" true (p = Registry.P_counter 7)
      | "polled_depth", p -> check_bool "gauge polled" true (p = Registry.P_gauge 14.0)
      | n, _ -> Alcotest.failf "unexpected sample %s" n)
    (Registry.collect reg)

let test_histogram_buckets () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~name:"lat" ~buckets:[| 0.1; 1.0 |] [] in
  Registry.observe h 0.05;
  Registry.observe h 0.5;
  Registry.observe h 5.0;
  check_int "count includes overflow" 3 (Registry.histogram_count h);
  check_float "sum" 5.55 (Registry.histogram_sum h);
  match Registry.collect reg with
  | [ { Registry.point = P_histogram { cumulative; sum; count }; _ } ] ->
      check_bool "cumulative le semantics" true
        (cumulative = [ (0.1, 1); (1.0, 2) ]);
      check_float "snapshot sum" 5.55 sum;
      check_int "snapshot count" 3 count
  | _ -> Alcotest.fail "expected one histogram sample"

let test_registration_rules () =
  let reg = Registry.create () in
  ignore (Registry.counter reg ~name:"x_total" [ ("a", "1"); ("b", "2") ]);
  (* Same series, labels given in a different order: identity is the
     key-sorted form, so this is a duplicate. *)
  check_bool "duplicate series rejected" true
    (raises_invalid (fun () ->
         ignore (Registry.counter reg ~name:"x_total" [ ("b", "2"); ("a", "1") ])));
  check_bool "kind mismatch rejected" true
    (raises_invalid (fun () ->
         ignore (Registry.gauge reg ~name:"x_total" [ ("a", "9") ])));
  check_bool "bad metric name rejected" true
    (raises_invalid (fun () -> ignore (Registry.counter reg ~name:"9bad" [])));
  check_bool "non-increasing buckets rejected" true
    (raises_invalid (fun () ->
         ignore (Registry.histogram reg ~name:"h" ~buckets:[| 1.0; 1.0 |] [])))

let test_collect_sorted () =
  let reg = Registry.create () in
  ignore (Registry.gauge reg ~name:"zz" []);
  ignore (Registry.counter reg ~name:"aa_total" [ ("g", "1") ]);
  ignore (Registry.counter reg ~name:"aa_total" [ ("g", "0") ]);
  let names =
    List.map
      (fun s -> (s.Registry.name, s.Registry.labels))
      (Registry.collect reg)
  in
  check_bool "sorted by name then labels" true
    (names
    = [ ("aa_total", [ ("g", "0") ]); ("aa_total", [ ("g", "1") ]); ("zz", []) ])

(* ------------------------------------------------------------------ *)
(* Prometheus exposition round-trip                                    *)
(* ------------------------------------------------------------------ *)

(* A small parser for the text exposition format. Escaped newlines in
   label values stay escaped in the text ("\n" as two characters), so
   splitting on physical newlines is safe. *)

let parse_series_line line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && line.[!i] <> '{' && line.[!i] <> ' ' do
    incr i
  done;
  let name = String.sub line 0 !i in
  let labels = ref [] in
  if !i < n && line.[!i] = '{' then begin
    incr i;
    while line.[!i] <> '}' do
      let ks = !i in
      while line.[!i] <> '=' do
        incr i
      done;
      let key = String.sub line ks (!i - ks) in
      incr i;
      if line.[!i] <> '"' then failwith "expected opening quote";
      incr i;
      let buf = Buffer.create 16 in
      let rec value () =
        match line.[!i] with
        | '\\' ->
            Buffer.add_char buf
              (match line.[!i + 1] with
              | 'n' -> '\n'
              | c -> c);
            i := !i + 2;
            value ()
        | '"' -> incr i
        | c ->
            Buffer.add_char buf c;
            incr i;
            value ()
      in
      value ();
      labels := (key, Buffer.contents buf) :: !labels;
      if line.[!i] = ',' then incr i
    done;
    incr i
  end;
  while !i < n && line.[!i] = ' ' do
    incr i
  done;
  (name, List.rev !labels, float_of_string (String.sub line !i (n - !i)))

let valid_metric_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let strip_suffix name =
  let drop sfx =
    let ls = String.length sfx and ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = sfx then
      Some (String.sub name 0 (ln - ls))
    else None
  in
  match drop "_bucket" with
  | Some b -> b
  | None -> (
      match drop "_sum" with
      | Some b -> b
      | None -> ( match drop "_count" with Some b -> b | None -> name))

let nasty = "a\"b\\c\nd"

let round_trip_registry () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~name:"rt_reqs_total" [ ("who", nasty) ] in
  Registry.inc ~by:41 c;
  let g = Registry.gauge reg ~name:"rt_depth" ~help:"queue \"depth\"" [] in
  Registry.set g 2.25;
  let h = Registry.histogram reg ~name:"rt_lat" ~buckets:[| 0.1; 1.0 |] [] in
  Registry.observe h 0.05;
  Registry.observe h 0.5;
  Registry.observe h 5.0;
  reg

let test_prometheus_round_trip () =
  let text = Exposition.prometheus (round_trip_registry ()) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let types = Hashtbl.create 8 in
  let series = ref [] in
  List.iter
    (fun line ->
      if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ _; _; name; kind ] ->
            check_bool ("TYPE name valid: " ^ name) true (valid_metric_name name);
            check_bool ("TYPE kind valid: " ^ kind) true
              (List.mem kind [ "counter"; "gauge"; "histogram" ]);
            Hashtbl.replace types name kind
        | _ -> Alcotest.failf "malformed TYPE line: %s" line
      end
      else if String.length line > 0 && line.[0] = '#' then
        (* HELP — free text after the name; just require the prefix. *)
        check_bool ("HELP prefix: " ^ line) true
          (String.length line > 7 && String.sub line 0 7 = "# HELP ")
      else begin
        let name, labels, value = parse_series_line line in
        check_bool ("series name valid: " ^ name) true (valid_metric_name name);
        check_bool ("TYPE precedes series: " ^ name) true
          (Hashtbl.mem types (strip_suffix name));
        series := (name, labels, value) :: !series
      end)
    lines;
  let series = List.rev !series in
  let find name = List.filter (fun (n, _, _) -> n = name) series in
  (match find "rt_reqs_total" with
  | [ (_, [ ("who", v) ], x) ] ->
      check_string "nasty label round-trips" nasty v;
      check_float "counter value" 41.0 x
  | _ -> Alcotest.fail "rt_reqs_total series missing");
  (match find "rt_depth" with
  | [ (_, [], x) ] -> check_float "gauge value" 2.25 x
  | _ -> Alcotest.fail "rt_depth series missing");
  let buckets = find "rt_lat_bucket" in
  check_int "3 bucket lines (incl +Inf)" 3 (List.length buckets);
  let le l = List.assoc "le" l in
  let counts = List.map (fun (_, l, v) -> (le l, v)) buckets in
  check_bool "cumulative bucket counts" true
    (counts = [ ("0.1", 1.0); ("1", 2.0); ("+Inf", 3.0) ]);
  (match find "rt_lat_count" with
  | [ (_, _, x) ] -> check_float "_count equals +Inf bucket" 3.0 x
  | _ -> Alcotest.fail "rt_lat_count missing");
  match find "rt_lat_sum" with
  | [ (_, _, x) ] -> check_float "_sum" 5.55 x
  | _ -> Alcotest.fail "rt_lat_sum missing"

let test_prometheus_deterministic () =
  let a = Exposition.prometheus (round_trip_registry ()) in
  let b = Exposition.prometheus (round_trip_registry ()) in
  check_string "byte-stable" a b

let test_json_well_formed () =
  let s = String.trim (Exposition.json (round_trip_registry ())) in
  check_bool "array" true
    (String.length s > 2 && s.[0] = '[' && s.[String.length s - 1] = ']');
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "counter present" true (contains "\"rt_reqs_total\"");
  check_bool "histogram fields" true (contains "\"buckets\"");
  check_bool "newline escaped" true (contains "\\n")

let test_fmt_float () =
  check_string "integral" "3" (Massbft_util.Json.number 3.0);
  check_string "fractional" "0.25" (Massbft_util.Json.number 0.25);
  check_string "zero" "0" (Massbft_util.Json.number 0.0)

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler_watch_sim () =
  (* The event-loop probes poll Sim.pending / Sim.dispatched without
     scheduling anything themselves (beyond the sampler tick). *)
  let sim = Sim.create () in
  let reg = Registry.create () in
  let s = Sampler.create ~period:0.5 reg in
  Sampler.watch_sim s sim;
  Sampler.attach s sim;
  (* 10 work events spread over [0, 1]; one long-range timer keeps a
     constant floor of pending work. *)
  for i = 1 to 10 do
    ignore (Sim.at sim (0.1 *. float_of_int i) (fun () -> ()))
  done;
  ignore (Sim.at sim 100.0 (fun () -> ()));
  Sim.run sim ~until:2.0;
  (match Sampler.column_index s ~name:"massbft_sim_pending_events" ~labels:[] with
  | None -> Alcotest.fail "pending column missing"
  | Some i ->
      List.iter
        (fun (_, row) ->
          check_bool "pending >= long-range timer" true (row.(i) >= 1.0))
        (Sampler.rows s));
  match Sampler.column_mean s ~name:"massbft_sim_dispatch_rate" ~labels:[] with
  | None -> Alcotest.fail "dispatch rate column missing"
  | Some m -> check_bool (Printf.sprintf "rate positive (%f)" m) true (m > 0.0)

let test_sampler_ticks_and_csv () =
  let sim = Sim.create () in
  let reg = Registry.create () in
  let s = Sampler.create ~period:0.5 reg in
  Sampler.add_probe s ~name:"probe_now" ~labels:[ ("k", "v") ]
    (fun ~now ~dt:_ -> now);
  Sampler.add_probe s ~name:"probe_busy" ~labels:[] ~resource:"fake res"
    (fun ~now:_ ~dt:_ -> 1.0);
  Sampler.attach s sim;
  check_bool "add after attach rejected" true
    (raises_invalid (fun () ->
         Sampler.add_probe s ~name:"late" ~labels:[] (fun ~now:_ ~dt:_ -> 0.0)));
  Sim.run sim ~until:2.0;
  check_bool
    (Printf.sprintf "ticked (%d)" (Sampler.tick_count s))
    true
    (Sampler.tick_count s >= 3);
  let times = List.map fst (Sampler.rows s) in
  check_bool "rows chronological" true (List.sort compare times = times);
  (match
     Sampler.column_mean s ~name:"probe_busy" ~labels:[]
   with
  | Some m -> check_float "constant probe mean" 1.0 m
  | None -> Alcotest.fail "probe_busy column missing");
  check_bool "label order irrelevant in lookup" true
    (Sampler.column_index s ~name:"probe_now" ~labels:[ ("k", "v") ] <> None);
  check_bool "unknown column" true
    (Sampler.column_mean s ~name:"nope" ~labels:[] = None);
  (* CSV shape: one header plus one line per tick, all with the same
     number of cells. *)
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Sampler.csv s))
  in
  check_int "csv line count" (1 + Sampler.tick_count s) (List.length lines);
  let cells l = List.length (String.split_on_char ',' l) in
  let header = List.hd lines in
  check_int "header cells" (1 + List.length (Sampler.columns s)) (cells header);
  List.iter
    (fun l -> check_int "row cells match header" (cells header) (cells l))
    (List.tl lines);
  (* Saturation sees the resource-tagged column. *)
  match Saturation.binding s with
  | Some v ->
      check_string "binding resource" "fake res" v.Saturation.resource;
      check_float "saturated all windows" 1.0 v.Saturation.saturated_share
  | None -> Alcotest.fail "expected a binding verdict"

(* ------------------------------------------------------------------ *)
(* Runner integration: no perturbation, then the paper's verdicts      *)
(* ------------------------------------------------------------------ *)

let quick_cfg ?(scale = 0.001) system =
  { (Config.default ~system ()) with Config.workload_scale = scale }

let fresh_sampler () = Sampler.create (Registry.create ())

let test_observed_run_bit_identical () =
  let spec = Clusters.nationwide ~nodes_per_group:4 () in
  let cfg =
    { (quick_cfg Config.Massbft) with Config.max_batch = 40; pipeline = 4 }
  in
  let plain = Runner.run ~warmup:1.0 ~duration:2.0 ~spec ~cfg () in
  let obs = fresh_sampler () in
  let observed = Runner.run ~warmup:1.0 ~duration:2.0 ~obs ~spec ~cfg () in
  check_float "throughput identical" plain.Runner.throughput_ktps
    observed.Runner.throughput_ktps;
  check_int "entries identical" plain.Runner.entries_executed
    observed.Runner.entries_executed;
  check_float "wan identical" plain.Runner.wan_mb observed.Runner.wan_mb;
  check_float "lan identical" plain.Runner.lan_mb observed.Runner.lan_mb;
  check_float "latency identical" plain.Runner.mean_latency_ms
    observed.Runner.mean_latency_ms;
  check_bool "plain run carries no verdict" true
    (plain.Runner.binding_resource = None);
  check_bool "observed run carries a verdict" true
    (observed.Runner.binding_resource <> None);
  check_bool "sampler ticked" true (Sampler.tick_count obs > 0)

let ends_with sfx s =
  let ls = String.length sfx and ln = String.length s in
  ln >= ls && String.sub s (ln - ls) ls = sfx

let test_saturation_baseline_wan () =
  (* Figure 1b/13a: the Baseline funnels every group's entries through
     one leader, whose WAN uplink is the binding resource. *)
  let obs = fresh_sampler () in
  let r =
    Runner.run ~warmup:1.5 ~duration:3.0 ~obs
      ~spec:(Clusters.nationwide ())
      ~cfg:(quick_cfg ~scale:0.01 Config.Baseline)
      ()
  in
  match r.Runner.binding_resource with
  | None -> Alcotest.fail "expected a binding resource"
  | Some res ->
      check_bool
        (Printf.sprintf "binding is a WAN uplink (%s)" res)
        true (ends_with " wan_up" res);
      check_bool
        (Printf.sprintf "binding is a leader (%s)" res)
        true
        (ends_with "/n0 wan_up" res);
      check_bool "leader uplink hot in result" true
        (List.exists (fun b -> b > 0.5) r.Runner.leader_wan_busy)

let test_saturation_massbft_cpu () =
  (* Figure 13a: with 16 nodes per group, MassBFT's signature
     verification makes the CPU the binding resource. (With much larger
     batches the bijective bulk transfer shifts the bottleneck back to
     follower WAN uplinks — the default batch size matches the paper's
     operating point.) *)
  let obs = fresh_sampler () in
  let r =
    Runner.run ~warmup:1.5 ~duration:3.0 ~obs
      ~spec:(Clusters.nationwide ~nodes_per_group:16 ())
      ~cfg:(quick_cfg ~scale:0.05 Config.Massbft)
      ()
  in
  match r.Runner.binding_resource with
  | None -> Alcotest.fail "expected a binding resource"
  | Some res ->
      check_bool
        (Printf.sprintf "binding is a CPU (%s)" res)
        true (ends_with " cpu" res);
      check_bool "some leader CPU hot in result" true
        (List.exists (fun u -> u > 0.5) r.Runner.leader_cpu_util)

(* [massbft run] is the one front end for traced, metered and profiled
   experiments: a short run with all three sinks writes all three files
   and prints each one's report. Runs from _build/default/test, next to
   the built CLI. *)
let test_cli_run_exports () =
  let cli = Filename.concat (Filename.concat ".." "bin") "massbft_cli.exe" in
  let tmp ext = Filename.temp_file "massbft_run" ext in
  let t = tmp ".json" and m = tmp ".prom" and p = tmp ".prof" in
  let out = tmp ".out" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s run -n 4 --scale 0.01 --warmup 0.2 -d 0.5 --trace %s --metrics %s \
          --prof %s > %s"
         cli t m p out)
  in
  check_int "exit 0" 0 code;
  let read f = In_channel.with_open_bin f In_channel.input_all in
  List.iter
    (fun f -> check_bool (f ^ " non-empty") true (read f <> ""))
    [ t; m; p ];
  let stdout = read out in
  let contains needle =
    let nl = String.length needle and sl = String.length stdout in
    let rec go i =
      i + nl <= sl && (String.sub stdout i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle -> check_bool ("stdout has " ^ needle) true (contains needle))
    [ "critical path, "; "Saturation report:"; "Host profile:" ];
  (* Sim tracks sit below pid 1000, the host timeline at and above it. *)
  let doc = Json.parse (read t) in
  let pids =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | None -> Alcotest.fail "no traceEvents"
    | Some events ->
        List.filter_map
          (fun e -> Option.bind (Json.member "pid" e) Json.to_float)
          events
  in
  check_bool "has sim pids" true (List.exists (fun pid -> pid < 1000.0) pids);
  check_bool "has host pids" true
    (List.exists (fun pid -> pid >= 1000.0) pids);
  List.iter Sys.remove [ t; m; p; out ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "massbft_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "polled instruments" `Quick test_polled_instruments;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "registration rules" `Quick test_registration_rules;
          Alcotest.test_case "collect sorted" `Quick test_collect_sorted;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus round-trip" `Quick
            test_prometheus_round_trip;
          Alcotest.test_case "prometheus deterministic" `Quick
            test_prometheus_deterministic;
          Alcotest.test_case "json well-formed" `Quick test_json_well_formed;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "ticks and csv" `Quick test_sampler_ticks_and_csv;
          Alcotest.test_case "watch_sim probes" `Quick test_sampler_watch_sim;
        ] );
      ( "runner",
        [
          Alcotest.test_case "observed run bit-identical" `Slow
            test_observed_run_bit_identical;
          Alcotest.test_case "baseline binds on leader wan_up" `Slow
            test_saturation_baseline_wan;
          Alcotest.test_case "massbft 16/group binds on cpu" `Slow
            test_saturation_massbft_cpu;
          Alcotest.test_case "cli run writes every export" `Quick
            test_cli_run_exports;
        ] );
    ]
