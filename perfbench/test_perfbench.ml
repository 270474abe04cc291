(* The benchmark's own tests, on the short variant of each workload:
   every simulated result repeats bit-for-bit across two runs, untraced
   vs traced, with vs without reference slices, and with vs without the
   outage poll; the stepped drive matches [Runner.run]'s single
   [Sim.run]; and every job passes its own checks. *)

open Perfbench
module Runner = Massbft_harness.Runner
module Trace = Massbft_trace.Trace

let seed = 7

let no_failures (j : Job.t) =
  Alcotest.(check (list string)) "self-checks pass" [] j.Job.failures

let same_exact what (a : Job.exact) (b : Job.exact) =
  if compare a b <> 0 then
    Alcotest.failf "%s: simulated results differ (%.17g vs %.17g ktps, %.17g vs %.17g ms p50)"
      what a.Job.sim_ktps b.Job.sim_ktps a.Job.p50_ms b.Job.p50_ms

let determinism (w : Workloads.t) () =
  let w = Workloads.short w in
  let run opts = Job.run ~opts w ~seed in
  let a = run Job.plain in
  no_failures a;
  Alcotest.(check bool) "something committed" true (a.Job.exact.Job.committed > 0);
  same_exact "two runs" a.Job.exact (run Job.plain).Job.exact;
  let traced = run { Job.plain with Job.traced = true; trace = Trace.create () } in
  no_failures traced;
  same_exact "untraced vs traced" a.Job.exact traced.Job.exact;
  same_exact "without reference slices" a.Job.exact
    (run { Job.plain with Job.ref_slices = false }).Job.exact;
  let unpolled = run { Job.plain with Job.poll = false } in
  Alcotest.(check bool) "no poll, no outage figure" true (Float.is_nan unpolled.Job.exact.Job.outage_s);
  same_exact "without the outage poll"
    { a.Job.exact with Job.outage_s = nan }
    unpolled.Job.exact

let matches_runner (w : Workloads.t) () =
  let w = Workloads.short w in
  let j = Job.run w ~seed in
  let r =
    Runner.run ~warmup:w.Workloads.warmup ~duration:w.Workloads.duration
      ~faults:w.Workloads.faults ~spec:(Workloads.spec ()) ~cfg:(Workloads.config w ~seed) ()
  in
  let e = j.Job.exact in
  Alcotest.(check (float 0.0)) "ktps" r.Runner.throughput_ktps e.Job.sim_ktps;
  Alcotest.(check (float 0.0)) "commit ratio" r.Runner.commit_ratio e.Job.commit_ratio;
  Alcotest.(check int) "entries" r.Runner.entries_executed e.Job.entries;
  Alcotest.(check (float 1e-9))
    "WAN per entry" (r.Runner.wan_mb_per_entry *. 1000.0) e.Job.wan_kb_per_entry

let faults_show () =
  let w = Workloads.short (Option.get (Workloads.find "fault-recovery")) in
  let base = Workloads.short (Option.get (Workloads.find "ycsb-a")) in
  let f = (Job.run w ~seed).Job.exact and b = (Job.run base ~seed).Job.exact in
  Alcotest.(check bool) "a group crash opens a longer commit gap" true
    (f.Job.outage_s > 2.0 *. b.Job.outage_s)

let replays () =
  Alcotest.(check int) "reference slice checksum" Refk.expected (Refk.slice ());
  Alcotest.(check bool) "pbft replay decides every slot" true (Layers.pbft ~slots:40 () > 0.0);
  Alcotest.(check bool) "dispatch replay keeps its depth" true
    (Layers.dispatch ~depth:64 ~events:20_000 () > 0.0);
  let w = Workloads.short (Option.get (Workloads.find "tpcc")) in
  let ex = Layers.exec w ~seed in
  Alcotest.(check bool) "TPC-C touches many keys per txn" true (ex.Layers.ops_per_txn > 10.0)

let json_shape () =
  let line =
    Report.json_line ~correct:true ~attempted:3 ~failed:0
      [ Report.metric "sim_ktps" "ktps" 69.95; Report.metric "setup_s" "s" 0.125 ]
  in
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"sim_ktps\": \
     {\"value\": 69.950000000000003, \"unit\": \"ktps\"}, \"setup_s\": {\"value\": 0.125, \
     \"unit\": \"s\"}}}"
    line

let () =
  Alcotest.run "perfbench"
    [
      ( "exact",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case (w.Workloads.name ^ " repeats") `Quick (determinism w))
          Workloads.all );
      ( "runner",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case (w.Workloads.name ^ " matches Runner.run") `Quick
              (matches_runner w))
          Workloads.all );
      ( "layers",
        [
          Alcotest.test_case "fault outage" `Quick faults_show;
          Alcotest.test_case "replays" `Quick replays;
          Alcotest.test_case "json shape" `Quick json_shape;
        ] );
    ]
