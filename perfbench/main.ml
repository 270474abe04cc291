(* perfbench: the repository's benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Builds the named workload's cluster from the seed, then runs whole
   simulation jobs back to back for about S host seconds (at least one)
   and prints the metrics table and, as the last line, one JSON object.

   --trace 0 reports the end-to-end metrics: simulated seconds per
   reference-normalized host second (median over jobs), set-up time,
   peak heap, and the simulated results, which repeat bit-for-bit.
   --trace 1 instead runs one plain job, one traced job and the layer
   replays, reports the per-layer metrics, and writes the host-clocked
   spans as a Chrome trace to perfbench/out/WORKLOAD.trace.json.

   Every job checks its own output; a job that fails a check counts as
   failed, and any failure makes [correct] false. The exit code is 0
   when a result was printed, 2 on bad arguments. *)

open Perfbench
module Trace = Massbft_trace.Trace
module Trace_export = Massbft_trace.Trace_export
module M = Report

let fail_usage msg =
  Printf.eprintf "perfbench: %s\nusage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n"
    msg (String.concat "|" Workloads.names);
  exit 2

(* The simulated results every job of a run must reproduce exactly. *)
let exact_metrics (w : Workloads.t) (e : Job.exact) =
  [
    M.metric "sim_ktps" "ktps" e.Job.sim_ktps;
    M.metric "sim_latency_p50_ms" "sim_ms" e.Job.p50_ms
      ~note:(Printf.sprintf "of %d entries" e.Job.latency_samples);
    M.metric "sim_latency_tail_ms" "sim_ms" e.Job.tail_ms
      ~note:
        (Printf.sprintf "p%g, %d of %d samples beyond" w.Workloads.tail_pct e.Job.tail_beyond
           e.Job.latency_samples);
    M.metric "commit_ratio" "fraction" e.Job.commit_ratio
      ~note:(Printf.sprintf "%d txns committed" e.Job.committed);
    M.metric "wan_kb_per_entry" "KB" e.Job.wan_kb_per_entry
      ~note:(Printf.sprintf "over %d executed entries" e.Job.entries);
    M.metric "outage_s" "sim_s" e.Job.outage_s
      ~note:(Printf.sprintf "longest commit gap, polled every %g sim-s" Job.poll_every);
  ]

let host_metrics (j : Job.t) =
  [
    M.metric "host.raw_wall_s" "s" j.Job.drive_wall_s ~note:"drive loop, unnormalized";
    M.metric "host.ref_slice_ms" "ms" (1000.0 *. Refk.slice_s j.Job.ref_meter)
      ~note:(Printf.sprintf "mean of %d slices; 1 ref_s = %g slices" j.Job.ref_meter.Refk.slices
               (1.0 /. Refk.nominal_s));
  ]

(* Prints every job's failures, a failed check or a simulated result
   that differs from the first job's, and returns how many jobs failed. *)
let report_failures (jobs : Job.t list) =
  let first = (List.hd jobs).Job.exact in
  let failures (j : Job.t) =
    j.Job.failures
    @ if compare j.Job.exact first <> 0 then [ "simulated results differ from job 0" ] else []
  in
  List.iteri (fun i j -> List.iter (Printf.printf "  job %d FAILED: %s\n" i) (failures j)) jobs;
  List.length (List.filter (fun j -> failures j <> []) jobs)

let end_to_end (w : Workloads.t) ~seed ~seconds =
  let setup = Job.measure_setup w ~seed in
  let t0 = Refk.now () in
  let rec loop acc =
    let acc = Job.run w ~seed :: acc in
    let elapsed = Refk.now () -. t0 in
    let per_job = elapsed /. float_of_int (List.length acc) in
    if elapsed +. per_job <= seconds then loop acc else List.rev acc
  in
  let jobs = loop [] in
  let first = List.hd jobs in
  let rates = List.map Job.sim_s_per_ref_s jobs in
  Printf.printf "perfbench %s seed %d: %d jobs of %g sim-s\n" w.Workloads.name seed
    (List.length jobs) first.Job.sim_s;
  let metrics =
    [
      M.metric "sim_s_per_ref_s" "sim_s/ref_s" (Job.median rates)
        ~note:
          ("median of " ^ String.concat " " (List.map (Printf.sprintf "%.4f") rates));
      M.metric "setup_s" "s" setup.Job.setup_s
        ~note:
          (Printf.sprintf "median of %d constructions, half-normalized" w.Workloads.setup_reps);
      M.metric "peak_heap_mb" "MB" first.Job.peak_heap_mb ~note:"GC top heap after job 0";
    ]
    @ exact_metrics w first.Job.exact
  in
  M.print_table metrics;
  Printf.printf "  diagnostics (not gated):\n";
  M.print_table (host_metrics first);
  (List.length jobs, report_failures jobs, metrics)

let per_layer (w : Workloads.t) ~seed ~trace_out =
  let trace = Trace.create () in
  Trace.set_clock trace Refk.now;
  let setup = Job.measure_setup ~trace w ~seed in
  let plain = Job.run w ~seed in
  let traced = Job.run ~opts:{ Job.plain with Job.traced = true; trace } w ~seed in
  let wl = Layers.workload ~trace w ~seed in
  let ex = Layers.exec ~trace w ~seed in
  let dispatch =
    Layers.dispatch ~trace ~depth:(int_of_float plain.Job.mean_pending) ~events:1_000_000 ()
  in
  let pbft = Layers.pbft ~trace ~slots:4_000 () in
  let e = plain.Job.exact in
  let entries = float_of_int e.Job.entries and txns = float_of_int e.Job.committed in
  let k = Option.get traced.Job.counts in
  let per_entry n = float_of_int n /. entries in
  let metrics =
    [
      M.metric "workload.create_s" "s" wl.Layers.create_s;
      M.metric "workload.next_ns_per_txn" "ref_ns" wl.Layers.next_ref_ns_per_txn;
      M.metric "engine.create_s" "s" setup.Job.engine_create_s;
      M.metric "exec.execute_ns_per_txn" "ref_ns" ex.Layers.execute_ref_ns_per_txn;
      M.metric "exec.ops_per_txn" "count" ex.Layers.ops_per_txn;
      M.metric "exec.alloc_words_per_txn" "words" ex.Layers.alloc_words_per_txn;
      M.metric "exec.store_keys" "count" (float_of_int e.Job.store_keys);
      M.metric "sim.events_per_entry" "count" (float_of_int plain.Job.events /. entries);
      M.metric "sim.ref_ns_per_event" "ref_ns"
        (Job.drive_ref_s plain *. 1e9 /. float_of_int plain.Job.events);
      M.metric "sim.dispatch_ns_per_event" "ref_ns" dispatch
        ~note:(Printf.sprintf "queue depth %d" (int_of_float plain.Job.mean_pending));
      M.metric "consensus.pbft_ns_per_slot" "ref_ns" pbft ~note:"n = 7, normal case";
      M.metric "consensus.view_changes" "count" (float_of_int e.Job.view_changes);
      M.metric "local_consensus.msgs_per_entry" "count" (per_entry k.Job.local);
      M.metric "replication.msgs_per_entry" "count" (per_entry k.Job.replication);
      M.metric "global_consensus.msgs_per_entry" "count" (per_entry k.Job.global);
      M.metric "replication.fetch_reqs" "count" (float_of_int k.Job.fetch_reqs);
    ]
    @ List.map (fun (p, v) -> M.metric ("phase." ^ p ^ "_ms") "sim_ms" v) e.Job.phases_ms
    @ [
        M.metric "obs.leader_cpu_util" "fraction" traced.Job.leader_cpu_util;
        M.metric "obs.leader_wan_busy" "fraction" traced.Job.leader_wan_busy;
        M.metric "gc.minor_words_per_txn" "words" (plain.Job.gc_minor_words /. txns);
        M.metric "gc.promoted_words_per_txn" "words" (plain.Job.gc_promoted_words /. txns);
        M.metric "gc.major_collections" "count" (float_of_int plain.Job.gc_major_collections);
      ]
    @ host_metrics plain
    @ [
        M.metric "trace.overhead" "fraction"
          ((Job.drive_ref_s traced /. Job.drive_ref_s plain) -. 1.0)
          ~note:"traced drive over plain drive, minus 1";
      ]
  in
  Printf.printf "perfbench %s seed %d: traced run\n" w.Workloads.name seed;
  M.print_table metrics;
  let failed = report_failures [ plain; traced ] in
  let dir = Filename.dirname trace_out in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Trace_export.write_chrome_json trace trace_out;
  Printf.printf "  host spans: %s (%d events, %d dropped)\n" trace_out (Trace.length trace)
    (Trace.dropped trace);
  (2, failed, metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds of jobs to run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) ""
   with Arg.Bad msg | Arg.Help msg -> fail_usage (List.hd (String.split_on_char '\n' msg)));
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> fail_usage (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then fail_usage "--seed must be a non-negative integer";
  if !seconds < 1 then fail_usage "--seconds must be at least 1";
  let attempted, failed, metrics =
    match !trace with
    | 0 -> end_to_end w ~seed:!seed ~seconds:(float_of_int !seconds)
    | 1 -> per_layer w ~seed:!seed ~trace_out:("perfbench/out/" ^ w.Workloads.name ^ ".trace.json")
    | _ -> fail_usage "--trace must be 0 or 1"
  in
  let bad = M.non_finite metrics in
  List.iter (fun m -> Printf.printf "  FAILED: %s is not a finite number\n" m.M.name) bad;
  let metrics = List.map (fun m -> if List.memq m bad then { m with M.value = 0.0 } else m) metrics in
  let failed = if bad <> [] then max 1 failed else failed in
  print_endline (M.json_line ~correct:(failed = 0) ~attempted ~failed metrics)
