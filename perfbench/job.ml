(* One job: build a cluster for a workload, drive it to the end of its
   measurement window in short [Sim.run ~until] steps, and read back the
   simulated results, the host cost, and the self-checks.

   Steps are [step] simulated seconds long and serve three purposes,
   none of which can change what the simulation does (stepping schedules
   no event, and every probe below only reads state):
   - a reference slice runs every [ref_every] simulated seconds, outside
     the timed drive, so host time can be normalized (see Refk);
   - the committed counter is polled every [poll_every] simulated
     seconds to find the longest stretch with no commit ([outage_s]);
     a healthy run reads exactly one poll interval;
   - fault workloads run the safety checkers every [check_every].

   The construction mirrors [Massbft_harness.Runner.run] step for step,
   and the benchmark's tests assert that both give identical results. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module Metrics = Massbft.Metrics
module Node_ctx = Massbft.Node_ctx
module Stats = Massbft_util.Stats
module Trace = Massbft_trace.Trace
module Sampler = Massbft_obs.Sampler
module Registry = Massbft_obs.Registry
module Injector = Massbft_faults.Injector
module Invariants = Massbft_faults.Invariants
module Fault_spec = Massbft_faults.Fault_spec
module Pbft = Massbft_consensus.Pbft

let step = 0.005
let poll_every = 0.05
let check_every = 0.25

(* Host-clocked span around [f ()] in the benchmark's own trace sink. *)
let timed ?(trace = Trace.null) ?(cat = "bench") name f =
  let b = Refk.now () in
  let r = f () in
  let e = Refk.now () in
  Trace.span trace ~cat ~b ~e name;
  (r, e -. b)

type cluster = {
  sim : Sim.t;
  topo : Topology.t;
  engine : Engine.t;
  engine_create_s : float;  (** host seconds spent in [Engine.create] *)
}

(* Cluster construction up to and including [Engine.start]: what
   [setup_s] times. [wire] runs between [Engine.create] and
   [Engine.start], where the traced job attaches its sampler. *)
let construct ?trace ?(wire = fun _ -> ()) (w : Workloads.t) ~seed =
  let spec = Workloads.spec () in
  let cfg = Workloads.config w ~seed in
  let ng = Array.length spec.Topology.group_sizes in
  let sim = Sim.create ~shards:ng ~lookahead:(Topology.min_wan_one_way spec) () in
  let topo = Topology.create sim spec in
  let engine, engine_create_s =
    timed ?trace "engine.create" (fun () -> Engine.create sim topo cfg)
  in
  let c = { sim; topo; engine; engine_create_s } in
  wire c;
  Engine.start engine;
  Engine.set_measure_from engine w.Workloads.warmup;
  c

(* ------------------------------------------------------------------ *)
(* Set-up time                                                         *)
(* ------------------------------------------------------------------ *)

type setup = {
  setup_s : float;  (** median construction time, see [setup_seconds] *)
  engine_create_s : float;  (** median [Engine.create] share *)
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Construction time in seconds, scaled by the square root of the host
   slowdown the reference slices measured around it. Construction mixes
   floating-point work that neighbouring tenants barely slow (YCSB's
   Zipf normalization constant) with allocation that they slow like the
   kernel (TPC-C builds in 2-4 ms of it): full normalization over-corrects
   the first, none leaves the second bimodal, and the square root held
   both steadiest (NOTES.md). *)
let setup_seconds m wall = wall *. Float.sqrt (Refk.nominal_s /. Refk.slice_s m)

(* [w.setup_reps] back-to-back constructions, each from a compacted heap
   between reference slices. *)
let measure_setup ?(trace = Trace.null) (w : Workloads.t) ~seed =
  let reps =
    List.init w.Workloads.setup_reps (fun _ ->
        Gc.compact ();
        let m = Refk.meter () in
        for _ = 1 to 10 do Refk.run ~trace m done;
        let c, wall = timed ~trace "setup.construct" (fun () -> construct ~trace w ~seed) in
        for _ = 1 to 10 do Refk.run ~trace m done;
        (setup_seconds m wall, setup_seconds m c.engine_create_s))
  in
  { setup_s = median (List.map fst reps); engine_create_s = median (List.map snd reps) }

(* ------------------------------------------------------------------ *)
(* Message counts through a pass-through send hook                     *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable local : int;  (** PBFT messages inside a group *)
  mutable replication : int;  (** chunks, copies and fetches *)
  mutable global : int;  (** Raft, accept phase and delivery notes *)
  mutable fetch_reqs : int;
}

(* Returns [None] for every message, which ships it on the exact
   fault-free send path: counting changes nothing. *)
let counting_hook k : Node_ctx.adv_hook =
 fun ~src:_ ~dst:_ ~bulk:_ ~bytes:_ msg ->
  (match msg with
  | Node_ctx.Local _ -> k.local <- k.local + 1
  | Chunk _ | Chunk_fwd _ | Copy _ | Copy_fwd _ -> k.replication <- k.replication + 1
  | Fetch_req _ ->
      k.replication <- k.replication + 1;
      k.fetch_reqs <- k.fetch_reqs + 1
  | Raft_m _ | Accept_req _ | Accept_vote _ | Accept_note _ | Recv_note _ ->
      k.global <- k.global + 1);
  None

(* ------------------------------------------------------------------ *)
(* The job                                                             *)
(* ------------------------------------------------------------------ *)

type opts = {
  ref_slices : bool;  (** interleave reference slices (off only in tests) *)
  poll : bool;  (** poll the committed counter for [outage_s] *)
  traced : bool;  (** count messages and sample resources *)
  trace : Trace.t;  (** host-clocked spans *)
}

let plain = { ref_slices = true; poll = true; traced = false; trace = Trace.null }

(* The simulated-side results: a pure function of the workload and the
   seed. Every field repeats bit-for-bit. *)
type exact = {
  sim_ktps : float;
  p50_ms : float;
  tail_ms : float;
  tail_beyond : int;  (** latency samples above the tail percentile *)
  latency_samples : int;
  commit_ratio : float;
  wan_kb_per_entry : float;
  outage_s : float;  (** nan when the poll is off *)
  entries : int;
  committed : int;
  phases_ms : (string * float) list;
  store_keys : int;
  view_changes : int;
}

type t = {
  sim_s : float;
  drive_wall_s : float;  (** host seconds inside the drive steps *)
  ref_meter : Refk.meter;
  mean_pending : float;  (** event-queue depth averaged over the run *)
  peak_heap_mb : float;
  gc_minor_words : float;  (** over the measurement window *)
  gc_promoted_words : float;
  gc_major_collections : int;
  exact : exact;
  events : int;
      (** events dispatched, the warm-up marker included; the traced
          job's sampler ticks add to it *)
  counts : counts option;
  leader_cpu_util : float;  (** nan unless traced *)
  leader_wan_busy : float;
  failures : string list;
}

let drive_ref_s j = Refk.to_ref j.ref_meter j.drive_wall_s
let sim_s_per_ref_s j = j.sim_s /. drive_ref_s j

(* Every leader's execution order must be a prefix of the longest one:
   the groups agree on one total order. *)
let check_agreement engine fail =
  let ids = List.init (Engine.n_groups engine) (fun gid -> Engine.executed_ids engine ~gid) in
  let longest =
    List.fold_left (fun a l -> if List.length l > List.length a then l else a) [] ids
  in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  List.iteri
    (fun g l ->
      if l = [] then fail (Printf.sprintf "group %d's leader executed nothing" g)
      else if not (is_prefix l longest) then
        fail (Printf.sprintf "group %d's execution order diverges" g))
    ids

let view_changes engine =
  let ctx = Engine.ctx engine in
  Array.fold_left
    (fun acc nodes ->
      acc
      + Array.fold_left
          (fun v (n : Node_ctx.node) ->
            match n.Node_ctx.n_pbft with Some p -> max v (Pbft.view p) | None -> v)
          0 nodes)
    0 ctx.Node_ctx.nodes

let leader_mean s ~name extra ng =
  let xs =
    List.init ng (fun g ->
        let labels = [ ("group", string_of_int g); ("node", "0") ] @ extra in
        Option.value ~default:0.0 (Sampler.column_mean s ~name ~labels))
  in
  List.fold_left ( +. ) 0.0 xs /. float_of_int ng

let run ?(opts = plain) (w : Workloads.t) ~seed =
  let trace = opts.trace in
  Gc.compact ();
  let sampler = if opts.traced then Some (Sampler.create (Registry.create ())) else None in
  let wire c =
    match sampler with
    | Some s ->
        Sampler.watch_sim s c.sim;
        Sampler.watch_topology s c.topo;
        Engine.set_obs c.engine s;
        Sampler.attach s c.sim
    | None -> ()
  in
  let c, _ = timed ~trace "job.construct" (fun () -> construct ~trace ~wire w ~seed) in
  let engine = c.engine and sim = c.sim in
  let warmup = w.Workloads.warmup in
  let until = warmup +. w.Workloads.duration in
  (* The same single warm-up event [Runner.run] schedules. *)
  ignore
    (Sim.at sim warmup (fun () ->
         Topology.reset_traffic_baseline c.topo;
         Option.iter Sampler.reset sampler));
  let counts =
    if opts.traced then begin
      let k = { local = 0; replication = 0; global = 0; fetch_reqs = 0 } in
      Engine.set_adversary engine (Some (counting_hook k));
      Some k
    end
    else None
  in
  let spec = Workloads.spec () in
  let schedule = w.Workloads.faults in
  if schedule <> [] then Injector.arm (Injector.create ~spec ~schedule engine sim c.topo);
  let checker =
    if schedule = [] then None
    else Some (Invariants.create ~heal_by:(Fault_spec.heal_time schedule) engine sim)
  in
  let m = Engine.metrics engine in
  (* Outage poll state. *)
  let last_committed = ref 0 and last_advance = ref nan and outage = ref 0.0 in
  let poll t =
    let n = Stats.Counter.get m.Metrics.committed_txns in
    if n > !last_committed then begin
      if t > warmup then begin
        if not (Float.is_nan !last_advance) then
          outage := Float.max !outage (t -. !last_advance);
        last_advance := t
      end;
      last_committed := n
    end
  in
  let meter = Refk.meter () in
  let check_wall = ref 0.0 in
  let pending_sum = ref 0 and pending_n = ref 0 in
  let every dt = max 1 (int_of_float (Float.round (dt /. step))) in
  let steps = every until in
  let ref_k = every w.Workloads.ref_every
  and poll_k = every poll_every
  and check_k = every check_every in
  (* GC counters cover the measurement window, like the committed count
     they are divided by. *)
  let warm_i = every warmup in
  let gc0 = ref (Gc.quick_stat ()) in
  let t_start = Refk.now () in
  let seg_b = ref t_start in
  for i = 1 to steps do
    let t = if i = steps then until else float_of_int i *. step in
    Sim.run sim ~until:t;
    if i = warm_i then gc0 := Gc.quick_stat ();
    if opts.poll && (i mod poll_k = 0 || i = steps) then poll t;
    (match checker with
    | Some inv when i mod check_k = 0 || i = steps ->
        let (), dt = timed ~trace ~cat:"check" "invariants.check" (fun () -> Invariants.check_now inv) in
        check_wall := !check_wall +. dt
    | _ -> ());
    if i mod ref_k = 0 || i = steps then begin
      pending_sum := !pending_sum + Sim.pending_total sim;
      incr pending_n;
      Trace.span trace ~cat:"drive" ~b:!seg_b ~e:(Refk.now ()) "drive.step";
      if opts.ref_slices then Refk.run ~trace meter;
      seg_b := Refk.now ()
    end
  done;
  let loop_wall = Refk.now () -. t_start in
  let gc1 = Gc.quick_stat () in
  if opts.poll && not (Float.is_nan !last_advance) then
    outage := Float.max !outage (until -. !last_advance);
  let failures = ref [] in
  let fail s = failures := s :: !failures in
  (match checker with
  | Some inv ->
      let (), dt = timed ~trace ~cat:"check" "invariants.finalize" (fun () -> Invariants.finalize inv) in
      check_wall := !check_wall +. dt;
      List.iter (fun v -> fail (Invariants.violation_to_string v)) (Invariants.violations inv)
  | None -> ());
  check_agreement engine fail;
  let committed = Stats.Counter.get m.Metrics.committed_txns in
  if committed <= 0 then fail "no transaction committed in the measurement window";
  let lat = m.Metrics.latency_s in
  let samples = Stats.Summary.count lat in
  let tail_pct = w.Workloads.tail_pct in
  let rank = int_of_float (Float.ceil (tail_pct /. 100.0 *. float_of_int samples)) in
  let tail_beyond = samples - rank in
  if tail_beyond < 10 then
    fail (Printf.sprintf "only %d latency samples beyond p%g" tail_beyond tail_pct);
  let pct p = if samples = 0 then nan else 1000.0 *. Stats.Summary.percentile lat p in
  let entries = Stats.Counter.get m.Metrics.entries_executed in
  let summary_ms s = 1000.0 *. Stats.Summary.mean s in
  let exact =
    {
      sim_ktps = Metrics.throughput_tps m ~duration:w.Workloads.duration /. 1000.0;
      p50_ms = pct 50.0;
      tail_ms = pct tail_pct;
      tail_beyond;
      latency_samples = samples;
      commit_ratio = Metrics.commit_ratio m;
      wan_kb_per_entry =
        (if entries = 0 then nan
         else float_of_int (Engine.wan_bytes engine) /. 1000.0 /. float_of_int entries);
      outage_s = (if opts.poll then !outage else nan);
      entries;
      committed;
      phases_ms =
        [
          ("batching", summary_ms m.Metrics.phase_batch_s);
          ("local_consensus", summary_ms m.Metrics.phase_local_s);
          ("coding", summary_ms m.Metrics.phase_coding_s);
          ("global_replication", summary_ms m.Metrics.phase_global_s);
          ("ordering", summary_ms m.Metrics.phase_order_s);
          ("execution", summary_ms m.Metrics.phase_exec_s);
        ];
      store_keys = Massbft_exec.Kvstore.size (Engine.ctx engine).Node_ctx.shared_store;
      view_changes = view_changes engine;
    }
  in
  let ng = Engine.n_groups engine in
  let util, wan =
    match sampler with
    | Some s ->
        ( leader_mean s ~name:"massbft_cpu_utilization" [] ng,
          leader_mean s ~name:"massbft_nic_busy_fraction"
            [ ("link", "wan_up"); ("class", "bulk") ] ng )
    | None -> (nan, nan)
  in
  {
    sim_s = until;
    drive_wall_s = loop_wall -. meter.Refk.wall -. !check_wall;
    ref_meter = meter;
    mean_pending = float_of_int !pending_sum /. float_of_int (max 1 !pending_n);
    peak_heap_mb =
      float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    gc_minor_words = gc1.Gc.minor_words -. !gc0.Gc.minor_words;
    gc_promoted_words = gc1.Gc.promoted_words -. !gc0.Gc.promoted_words;
    gc_major_collections = gc1.Gc.major_collections - !gc0.Gc.major_collections;
    exact;
    events = Sim.dispatched_total sim;
    counts;
    leader_cpu_util = util;
    leader_wan_busy = wan;
    failures = List.rev !failures;
  }
