(* The named bechamel micro-benchmarks: one for each simulator path a
   macro row runs for every event, message, entry or transaction (the
   event queue, one network hop through the topology, a PBFT slot, VTS
   ordering, YCSB batch generation and Aria execution on YCSB and
   TPC-C). Payloads are virtual inside the simulator, so the codec and
   crypto code has no micro here; test_codec and test_crypto pin its
   correctness.

   A library rather than part of the bench executable so the CLI's
   [massbft bench] subcommand can run the same suite — the regression
   gate must measure exactly the benchmarks the committed baselines
   were built from. Every fixture is built when its benchmark runs, so
   linking this module costs the CLI's other subcommands nothing. *)

open Bechamel
open Toolkit
module Orderer = Massbft.Orderer
module Types = Massbft.Types
module Aria = Massbft_exec.Aria
module Kvstore = Massbft_exec.Kvstore
module W = Massbft_workload.Workload
module Pbft = Massbft_consensus.Pbft
module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Clusters = Massbft_harness.Clusters
module Bench_report = Massbft_harness.Bench_report

let bench_orderer =
  Test.make ~name:"orderer/1000-timestamps"
    (Staged.stage (fun () ->
         let executed = ref 0 in
         let o = Orderer.create ~ng:3 ~on_execute:(fun _ -> incr executed) in
         let clocks = [| 0; 0; 0 |] in
         for s = 1 to 250 do
           for g = 0 to 2 do
             clocks.(g) <- s;
             for j = 0 to 2 do
               if j <> g then
                 Orderer.on_timestamp o ~from_gid:j
                   ~eid:{ Types.gid = g; seq = s }
                   ~ts:clocks.(j)
             done
           done
         done;
         assert (!executed > 500)))

(* The full-scale YCSB-A generator (1M rows, Zipf 0.99) cutting one
   500-txn batch, as Batcher.form_batch does on every batch tick of the
   ycsb-a macro. The generator keeps its state across runs, like a
   leader's, and is built when the benchmark runs: its Zipf table costs
   a pass over the million rows. *)
let bench_ycsb_batch =
  Test.make_with_resource ~name:"workload/ycsb-a-500-txn-batch" Test.uniq
    ~allocate:(fun () -> W.create W.Ycsb_a ~seed:7L)
    ~free:ignore
    (Staged.stage (fun w -> ignore (List.init 500 (fun _ -> W.next w))))

let bench_aria =
  Test.make_with_resource ~name:"aria/500-txn-batch" Test.uniq
    ~allocate:(fun () ->
      let w = W.create ~scale:0.01 W.Ycsb_a ~seed:7L in
      List.init 500 (fun _ -> W.next w))
    ~free:ignore
    (Staged.stage (fun batch ->
         let store = Kvstore.create () in
         ignore (Aria.execute_batch store batch)))

(* Aria over TPC-C bodies as the tpcc macro executes them: 500-txn
   batches (the default max_batch) of the full 128-warehouse workload,
   over a preload store that 20 earlier batches have warmed. Runs cycle
   through 8 batches; like the macro's, the store keeps growing by the
   orders each batch inserts. *)
let bench_aria_tpcc =
  let allocate () =
    let w = W.create W.Tpcc ~seed:7L in
    let store = Kvstore.create ~init:(W.preload W.Tpcc) () in
    let batch () = List.init 500 (fun _ -> W.next w) in
    for _ = 1 to 20 do ignore (Aria.execute_batch store (batch ())) done;
    (store, Array.init 8 (fun _ -> batch ()), ref 0)
  in
  Test.make_with_resource ~name:"aria/tpcc-500-txn-batch" Test.uniq ~allocate
    ~free:ignore
    (Staged.stage (fun (store, batches, next) ->
         incr next;
         ignore (Aria.execute_batch store batches.(!next land 7))))

let bench_pbft =
  Test.make ~name:"pbft/normal-case-n7"
    (Staged.stage (fun () ->
         (* A full three-phase decision over an in-memory bus. *)
         let n = 7 in
         let queue = Queue.create () in
         let decided = ref 0 in
         let replicas = Array.make n None in
         Array.iteri
           (fun me _ ->
             replicas.(me) <-
               Some
                 (Pbft.create
                    { Pbft.n; me; skip_prepare = false }
                    {
                      Pbft.send = (fun dst m -> Queue.push (me, dst, m) queue);
                      decide = (fun _ -> incr decided);
                    }))
           replicas;
         Pbft.propose (Option.get replicas.(0)) ~seq:1 ~digest:"d";
         while not (Queue.is_empty queue) do
           let src, dst, m = Queue.pop queue in
           Pbft.handle (Option.get replicas.(dst)) ~from:src m
         done;
         assert (!decided = n)))

let bench_sim =
  Test.make ~name:"sim/100k-events"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         let count = ref 0 in
         let rec chain i =
           if i < 100_000 then
             Sim.after sim 0.001 (fun () ->
                 incr count;
                 chain (i + 10))
         in
         for k = 0 to 9 do
           chain k
         done;
         Sim.run_until_idle sim ();
         assert (!count = 100_000)))

(* One fault-free WAN control message and one LAN bulk chunk through
   [Topology.send], from send to delivery, on the paper's nationwide
   3x7 cluster: the path every message of a macro row takes (uplink
   reservation, arrival event, downlink, delivery event). The NICs are
   idle again when each run ends. *)
let bench_remote_send =
  let src = { Topology.g = 0; n = 0 } in
  let wan_dst = { Topology.g = 1; n = 0 } and lan_dst = { Topology.g = 0; n = 1 } in
  let delivered = ref 0 in
  let deliver () = incr delivered in
  Test.make_with_resource ~name:"sim/remote-send" Test.uniq
    ~allocate:(fun () ->
      let sim = Sim.create ~shards:3 () in
      (sim, Topology.create sim (Clusters.nationwide ())))
    ~free:ignore
    (Staged.stage (fun (sim, topo) ->
         Topology.send ~bulk:false topo ~src ~dst:wan_dst ~bytes:Types.vote_bytes deliver;
         Topology.send ~bulk:true topo ~src ~dst:lan_dst ~bytes:16_384 deliver;
         Sim.run_until_idle sim ()))

let suite =
  Test.make_grouped ~name:"massbft" ~fmt:"%s %s"
    [
      bench_orderer; bench_ycsb_batch; bench_aria; bench_aria_tpcc; bench_pbft;
      bench_sim; bench_remote_send;
    ]

let run_micro () =
  print_endline "=== micro-benchmarks (bechamel) ===";
  (* Samples run warm, as the macro rows run these paths: back to back,
     with no [Gc.compact] before each sample. A compaction per sample
     would evict the caches, and a sub-us micro would read its
     cold-cache cost. Each micro gets up to 200 samples within 0.5 s; the
     slowest, a TPC-C batch at ~5 ms per run, still gets over a dozen
     for the OLS fit. *)
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] suite in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort compare
    |> List.filter_map (fun (name, result) ->
           match Analyze.OLS.estimates result with
           | Some [ est ] ->
               Printf.printf "  %-40s %12.1f ns/run\n" name est;
               Some { Bench_report.m_name = name; ns_per_run = est }
           | _ ->
               Printf.printf "  %-40s (no estimate)\n" name;
               None)
  in
  print_newline ();
  estimates
