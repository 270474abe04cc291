(* The named bechamel micro-benchmarks for every substrate hot path
   (SHA-256, HMAC, Merkle trees, GF arithmetic, Reed-Solomon coding
   over both GF(256) and GF(65536), transfer plans, chunker/rebuild,
   VTS ordering, Aria execution on YCSB and TPC-C, PBFT rounds, and the
   simulator core including a schedule/cancel/poll churn case).

   A library rather than part of the bench executable so the CLI's
   [massbft bench] subcommand can run the same suite — the regression
   gate must measure exactly the benchmarks the committed baselines
   were built from. *)

open Bechamel
open Toolkit
module Sha256 = Massbft_crypto.Sha256
module Hmac = Massbft_crypto.Hmac
module Merkle = Massbft_crypto.Merkle
module Gf256 = Massbft_codec.Gf256
module Gf65536 = Massbft_codec.Gf65536
module Erasure = Massbft_codec.Erasure
module Transfer_plan = Massbft.Transfer_plan
module Chunker = Massbft.Chunker
module Rebuild = Massbft.Rebuild
module Orderer = Massbft.Orderer
module Types = Massbft.Types
module Aria = Massbft_exec.Aria
module Kvstore = Massbft_exec.Kvstore
module W = Massbft_workload.Workload
module Pbft = Massbft_consensus.Pbft
module Sim = Massbft_sim.Sim
module Bench_report = Massbft_harness.Bench_report

(* ------------------------------------------------------------------ *)
(* Micro-benchmark subjects                                            *)
(* ------------------------------------------------------------------ *)

let payload_4k = String.init 4096 (fun i -> Char.chr (i land 0xff))
let entry_100k = String.init 100_000 (fun i -> Char.chr ((i * 31) land 0xff))
let plan_4_7 = Transfer_plan.generate ~n1:4 ~n2:7
let plan_7_7 = Transfer_plan.generate ~n1:7 ~n2:7

let bench_sha256 =
  Test.make ~name:"sha256/4KiB" (Staged.stage (fun () -> Sha256.digest payload_4k))

let bench_hmac =
  Test.make ~name:"hmac/4KiB"
    (Staged.stage (fun () -> Hmac.mac ~key:"bench-key" payload_4k))

let merkle_leaves = List.init 28 (fun i -> Printf.sprintf "chunk-%d" i)
let merkle_tree = Merkle.build merkle_leaves
let merkle_root = Merkle.root merkle_tree
let merkle_proof = Merkle.prove merkle_tree 13

let bench_merkle_build =
  Test.make ~name:"merkle/build-28"
    (Staged.stage (fun () -> Merkle.build merkle_leaves))

let bench_merkle_verify =
  Test.make ~name:"merkle/verify"
    (Staged.stage (fun () ->
         Merkle.verify ~root:merkle_root ~leaf:"chunk-13" merkle_proof))

let merkle_mp = Merkle.prove_many merkle_tree [ 0; 1; 2; 3; 4; 5; 6 ]
let merkle_mp_leaves = List.init 7 (fun i -> (i, Printf.sprintf "chunk-%d" i))

let bench_merkle_multiproof =
  Test.make ~name:"merkle/multiproof-verify-7of28"
    (Staged.stage (fun () ->
         assert
           (Merkle.verify_many ~root:merkle_root ~leaf_count:28
              ~leaves:merkle_mp_leaves merkle_mp)))

let gf_src = Bytes.of_string payload_4k
let gf_dst = Bytes.create 4096

let bench_gf_mul_slice =
  Test.make ~name:"gf256/mul_slice-4KiB"
    (Staged.stage (fun () -> Gf256.mul_slice 0x57 gf_src gf_dst))

let bench_gf_xor_slice =
  (* Coefficient 1 takes the word-wide XOR fast path. *)
  Test.make ~name:"gf256/xor_slice-4KiB"
    (Staged.stage (fun () -> Gf256.mul_slice 1 gf_src gf_dst))

let bench_gf16_mul_slice =
  Test.make ~name:"gf65536/mul_slice-4KiB"
    (Staged.stage (fun () -> Gf65536.mul_slice 0x1234 gf_src gf_dst))

let bench_gf16_xor_slice =
  (* Coefficient 1 takes the word-wide XOR fast path. *)
  Test.make ~name:"gf65536/xor_slice-4KiB"
    (Staged.stage (fun () -> Gf65536.mul_slice 1 gf_src gf_dst))

(* GF(256) coding: 28 total shards, the paper's 3x(7+...) regime. *)
let bench_rs_encode =
  Test.make ~name:"rs/gf8-encode-13+15-100KB"
    (Staged.stage (fun () -> Erasure.encode ~data:13 ~parity:15 entry_100k))

let rs_chunks =
  Array.to_list
    (Array.mapi (fun i c -> (i, c)) (Erasure.encode ~data:13 ~parity:15 entry_100k))

let rs_tail = List.filteri (fun i _ -> i >= 15) rs_chunks

(* Warm the decode path once during setup: the decode-matrix inversion
   is computed once per row pattern and cached (as in production, where
   a rebuild decodes many entries with the same surviving-shard set),
   so the micro measures steady-state slice throughput, not the
   one-time O(data^3) inversion. *)
let () =
  match Erasure.decode ~data:13 ~parity:15 rs_tail with
  | Ok _ -> ()
  | Error e -> failwith e

let bench_rs_decode =
  Test.make ~name:"rs/gf8-decode-from-parity-100KB"
    (Staged.stage (fun () ->
         match Erasure.decode ~data:13 ~parity:15 rs_tail with
         | Ok _ -> ()
         | Error e -> failwith e))

(* GF(65536) coding: > 255 total shards forces the 16-bit field. *)
let bench_rs16_encode =
  Test.make ~name:"rs/gf16-encode-180+120-100KB"
    (Staged.stage (fun () -> Erasure.encode ~data:180 ~parity:120 entry_100k))

let rs16_chunks =
  Array.to_list
    (Array.mapi (fun i c -> (i, c)) (Erasure.encode ~data:180 ~parity:120 entry_100k))

let rs16_tail = List.filteri (fun i _ -> i >= 120) rs16_chunks

(* Same steady-state warm-up as the gf8 decode micro; the 180x180
   GF(2^16) inversion is far too large to amortize inside a sample. *)
let () =
  match Erasure.decode ~data:180 ~parity:120 rs16_tail with
  | Ok _ -> ()
  | Error e -> failwith e

let bench_rs16_decode =
  Test.make ~name:"rs/gf16-decode-from-parity-100KB"
    (Staged.stage (fun () ->
         match Erasure.decode ~data:180 ~parity:120 rs16_tail with
         | Ok _ -> ()
         | Error e -> failwith e))

let bench_plan =
  Test.make ~name:"transfer_plan/generate-40x39"
    (Staged.stage (fun () -> Transfer_plan.generate ~n1:40 ~n2:39))

let bench_chunker =
  Test.make ~name:"chunker/encode-4to7-100KB"
    (Staged.stage (fun () -> Chunker.encode ~plan:plan_4_7 ~entry:entry_100k))

let chunker_chunks = Chunker.encode ~plan:plan_7_7 ~entry:entry_100k

let bench_rebuild =
  Test.make ~name:"rebuild/100KB-7to7"
    (Staged.stage (fun () ->
         let rb =
           Rebuild.create ~plan:plan_7_7
             ~validate:(fun e -> String.equal e entry_100k)
             ()
         in
         Array.iter (fun c -> ignore (Rebuild.add rb c)) chunker_chunks;
         assert (Rebuild.result rb <> None)))

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

let aria_batch =
  let w = W.create ~scale:0.01 W.Ycsb_a ~seed:7L in
  List.init 500 (fun _ -> W.next w)

let bench_aria =
  Test.make ~name:"aria/500-txn-batch"
    (Staged.stage (fun () ->
         let store = Kvstore.create () in
         ignore (Aria.execute_batch store aria_batch)))

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
             ignore
               (Sim.after sim 0.001 (fun () ->
                    incr count;
                    chain (i + 10)))
         in
         for k = 0 to 9 do
           chain k
         done;
         Sim.run_until_idle sim ();
         assert (!count = 100_000)))

let bench_sim_churn =
  (* The timeout-churn pattern that motivated the lazy-deletion queue:
     schedule a wave of timers, cancel 90% of them (polling the live
     count after every cancel, as the obs sampler does each tick), and
     drain the survivors. Before the O(1) counter + compaction this was
     quadratic in the wave size. *)
  Test.make ~name:"sim/churn-10k-cancel+poll"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         let fired = ref 0 in
         let timers =
           Array.init 10_000 (fun i ->
               Sim.at sim
                 (1.0 +. (float_of_int i *. 1e-4))
                 (fun () -> incr fired))
         in
         let acc = ref 0 in
         Array.iteri
           (fun i h ->
             if i mod 10 <> 0 then begin
               Sim.cancel h;
               acc := !acc + Sim.pending sim
             end)
           timers;
         Sim.run_until_idle sim ();
         assert (!fired = 1_000 && Sim.pending sim = 0);
         ignore !acc))

let micro_tests =
  [
    bench_sha256; bench_hmac; bench_merkle_build; bench_merkle_verify;
    bench_merkle_multiproof; bench_gf_mul_slice; bench_gf_xor_slice;
    bench_gf16_mul_slice; bench_gf16_xor_slice; bench_rs_encode;
    bench_rs_decode;
    bench_rs16_encode; bench_rs16_decode; bench_plan;
    bench_chunker; bench_rebuild; bench_orderer; bench_aria; bench_aria_tpcc;
    bench_pbft;
    bench_sim; bench_sim_churn;
  ]

let run_micro ?(print = true) ~quick () =
  if print then print_endline "=== micro-benchmarks (bechamel) ===";
  let cfg =
    if quick then Benchmark.cfg ~limit:25 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let test = Test.make_grouped ~name:"massbft" ~fmt:"%s %s" micro_tests in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
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
               if print then Printf.printf "  %-40s %12.1f ns/run\n" name est;
               Some { Bench_report.m_name = name; ns_per_run = est }
           | _ ->
               if print then Printf.printf "  %-40s (no estimate)\n" name;
               None)
  in
  if print then print_newline ();
  estimates
