(* Layer replays for the traced run: each times one layer's public
   functions from outside, on inputs shaped like the workload's own, and
   checks what they return. Work runs in chunks with a reference slice
   after each, so per-operation timings come out in reference units like
   the drive loop's; the one-shot [Workload.create] is timed like a
   set-up. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module W = Massbft_workload.Workload
module Kvstore = Massbft_exec.Kvstore
module Aria = Massbft_exec.Aria
module Pbft = Massbft_consensus.Pbft
module Trace = Massbft_trace.Trace

(* Runs [f i] for [i] in [0, chunks), a reference slice after each and
   one before the first, and returns the chunks' total time in reference
   seconds. *)
let paced ?(trace = Trace.null) name ~chunks f =
  let m = Refk.meter () in
  Refk.run ~trace m;
  let wall = ref 0.0 in
  for i = 0 to chunks - 1 do
    let (), dt = Job.timed ~trace ~cat:"layer" name (fun () -> f i) in
    wall := !wall +. dt;
    Refk.run ~trace m
  done;
  Refk.to_ref m !wall

type workload_layer = {
  create_s : float;  (** one [Workload.create], in [setup_s]'s seconds *)
  next_ref_ns_per_txn : float;
}

let workload ?trace (w : Workloads.t) ~seed =
  let seed = Int64.of_int seed in
  let scale = w.Workloads.scale in
  let m = Refk.meter () in
  for _ = 1 to 10 do Refk.run ?trace m done;
  let _, wall =
    Job.timed ?trace ~cat:"layer" "workload.create" (fun () ->
        Sys.opaque_identity (W.create ~scale w.Workloads.kind ~seed))
  in
  for _ = 1 to 10 do Refk.run ?trace m done;
  let create_s = Job.setup_seconds m wall in
  let gen = W.create ~scale w.Workloads.kind ~seed in
  let chunks = 20 and per_chunk = if w.Workloads.kind = W.Tpcc then 2_000 else 10_000 in
  let r =
    paced ?trace "workload.next" ~chunks (fun _ ->
        for _ = 1 to per_chunk do ignore (Sys.opaque_identity (W.next gen)) done)
  in
  { create_s; next_ref_ns_per_txn = r *. 1e9 /. float_of_int (chunks * per_chunk) }

type exec_layer = {
  execute_ref_ns_per_txn : float;
  ops_per_txn : float;
  alloc_words_per_txn : float;
}

(* Aria on [batches] 500-txn batches of the workload's own stream over
   a store with the workload's preload, as the execution stage runs it. *)
let exec ?trace (w : Workloads.t) ~seed =
  let scale = w.Workloads.scale and kind = w.Workloads.kind in
  let gen = W.create ~scale kind ~seed:(Int64.of_int seed) in
  let batches = if kind = W.Tpcc then 16 else 60 and size = 500 in
  let input = Array.init batches (fun _ -> List.init size (fun _ -> W.next gen)) in
  let store = Kvstore.create ~init:(W.preload ~scale kind) () in
  let ops = ref 0 and words = ref 0.0 and outcomes = ref 0 in
  let r =
    paced ?trace "exec.execute_batch" ~chunks:batches (fun i ->
        let w0 = Gc.minor_words () in
        let o = Aria.execute_batch ~reorder:true store input.(i) in
        words := !words +. (Gc.minor_words () -. w0);
        ops := !ops + o.Aria.reads + o.Aria.writes;
        outcomes :=
          !outcomes + List.length o.Aria.committed + List.length o.Aria.conflicted
          + List.length o.Aria.logic_aborted)
  in
  let txns = batches * size in
  if !outcomes <> txns then failwith "exec replay: Aria lost transactions";
  {
    execute_ref_ns_per_txn = r *. 1e9 /. float_of_int txns;
    ops_per_txn = float_of_int !ops /. float_of_int txns;
    alloc_words_per_txn = !words /. float_of_int txns;
  }

(* Bare dispatch: no-op events on the macro's shard layout, each firing
   scheduling its successor so the queue holds [depth] events throughout
   (the macro's mean depth). One event per simulated microsecond on
   average. *)
let dispatch ?trace ~depth ~events () =
  let spec = Workloads.spec () in
  let ng = Array.length spec.Topology.group_sizes in
  let sim = Sim.create ~shards:ng ~lookahead:(Topology.min_wan_one_way spec) () in
  let lcg = ref 12345 in
  let rand bound =
    lcg := (!lcg * 1103515245 + 12345) land 0x3fffffff;
    !lcg mod bound
  in
  let mean_gap = 1e-6 in
  let span_ticks = 2 * depth in
  let fired = ref 0 in
  let rec ev () =
    incr fired;
    let sh = Sim.shard sim (rand ng) in
    ignore (Sim.after sh (float_of_int (1 + rand span_ticks) *. mean_gap) ev)
  in
  for _ = 1 to depth do
    ignore (Sim.at (Sim.shard sim (rand ng)) (float_of_int (rand span_ticks) *. mean_gap) ev)
  done;
  let chunks = 20 in
  let per_chunk = float_of_int events *. mean_gap /. float_of_int chunks in
  let r =
    paced ?trace "sim.dispatch" ~chunks (fun i ->
        Sim.run sim ~until:(float_of_int (i + 1) *. per_chunk))
  in
  if Sim.pending_total sim <> depth then failwith "dispatch replay: queue depth drifted";
  r *. 1e9 /. float_of_int !fired

(* PBFT's normal case at n = 7: the leader proposes [slots] slots one at
   a time and an in-memory queue delivers every message until all seven
   replicas decide. *)
let pbft ?trace ~slots () =
  let n = 7 in
  let q = Queue.create () in
  let decided = ref 0 in
  let replicas =
    Array.init n (fun me ->
        Pbft.create
          { Pbft.n; me; skip_prepare = false }
          {
            Pbft.send = (fun dst msg -> Queue.push (dst, me, msg) q);
            decide = (fun _ -> incr decided);
          })
  in
  let digests = Array.init slots (fun s -> Digest.string (string_of_int s)) in
  let chunks = 20 in
  let per_chunk = slots / chunks in
  let r =
    paced ?trace "consensus.pbft" ~chunks (fun c ->
        for s = c * per_chunk to ((c + 1) * per_chunk) - 1 do
          Pbft.propose replicas.(0) ~seq:(s + 1) ~digest:digests.(s);
          while not (Queue.is_empty q) do
            let dst, from, msg = Queue.pop q in
            Pbft.handle replicas.(dst) ~from msg
          done
        done)
  in
  if !decided <> n * chunks * per_chunk then failwith "pbft replay: a slot did not decide";
  r *. 1e9 /. float_of_int (chunks * per_chunk)
