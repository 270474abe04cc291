(* Integration tests: full protocol deployments over the simulated
   cluster. These check system-level properties — progress for every
   system, agreement on execution order and ledgers across groups,
   Byzantine chunk tampering tolerance, and group-crash takeover with
   VTS continuation. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Config = Massbft.Config
module Engine = Massbft.Engine
module Metrics = Massbft.Metrics
module Types = Massbft.Types
module Ledger = Massbft_exec.Ledger
module Stats = Massbft_util.Stats
module Clusters = Massbft_harness.Clusters
module Fault_spec = Massbft_faults.Fault_spec
module Deployment = Massbft_faults.Deployment
module Adv_spec = Massbft_adversary.Adv_spec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Small, fast cluster: 3 groups x 4 nodes, tiny batches. *)
let small_cfg = Golden_fixture.small_cfg
let small_spec = Golden_fixture.small_spec

(* [faults] and [adversary] are scenario text (Fault_spec / Adv_spec). *)
let run_engine ?(until = 6.0) ?(cfg = small_cfg ()) ?(spec = small_spec ())
    ?(faults = "") ?(adversary = "") ?(before_run = fun _ _ _ -> ()) () =
  let d =
    Deployment.build ~faults:(Fault_spec.of_string faults)
      ~adversary:(Adv_spec.of_string adversary) ~spec ~cfg ()
  in
  Deployment.start d;
  before_run d.engine d.sim d.topo;
  Sim.run d.sim ~until;
  (d.engine, d.sim, d.topo)

(* The last node of each 4-node group (f = 1) tampers with every chunk
   it sends or forwards from [from] on. *)
let tamperers ~from =
  String.concat ""
    (List.init 3 (fun g ->
         Printf.sprintf "@%g tamper node:g%d/n3 for 1000\n" from g))

let committed eng =
  Stats.Counter.get (Engine.metrics eng).Metrics.committed_txns

(* ------------------------------------------------------------------ *)
(* Progress for every system                                           *)
(* ------------------------------------------------------------------ *)

let test_all_systems_make_progress () =
  List.iter
    (fun system ->
      let eng, _, _ = run_engine ~cfg:(small_cfg ~system ()) () in
      let n = committed eng in
      check_bool
        (Printf.sprintf "%s commits transactions (%d)" (Config.system_name system) n)
        true (n > 200);
      check_bool
        (Printf.sprintf "%s executed entries" (Config.system_name system))
        true
        (Engine.entries_executed_total eng > 0))
    Config.all_systems

let test_all_groups_propose () =
  (* Multi-master: every group's entries appear in the executed order. *)
  let eng, _, _ = run_engine () in
  let ids = Engine.executed_ids eng ~gid:0 in
  List.iter
    (fun g ->
      check_bool
        (Printf.sprintf "group %d proposed and executed" g)
        true
        (List.exists (fun (e : Types.entry_id) -> e.Types.gid = g) ids))
    [ 0; 1; 2 ]

let test_steward_single_proposer_order () =
  (* Steward executes in the single Raft instance's commit order —
     identical at every leader. *)
  let eng, _, _ = run_engine ~cfg:(small_cfg ~system:Config.Steward ()) () in
  let a = Engine.executed_ids eng ~gid:0 in
  check_bool "some execution" true (List.length a > 5)

(* ------------------------------------------------------------------ *)
(* Agreement                                                           *)
(* ------------------------------------------------------------------ *)

let prefix_agree name a b =
  let common = min (List.length a) (List.length b) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  Alcotest.(check (list (pair int int)))
    name
    (List.map (fun (e : Types.entry_id) -> (e.Types.gid, e.Types.seq)) (take common a))
    (List.map (fun (e : Types.entry_id) -> (e.Types.gid, e.Types.seq)) (take common b))

let test_execution_agreement () =
  List.iter
    (fun system ->
      let eng, _, _ = run_engine ~cfg:(small_cfg ~system ()) () in
      let l0 = Engine.executed_ids eng ~gid:0 in
      let l1 = Engine.executed_ids eng ~gid:1 in
      let l2 = Engine.executed_ids eng ~gid:2 in
      check_bool "nonempty" true (List.length l0 > 5);
      prefix_agree (Config.system_name system ^ " 0~1") l0 l1;
      prefix_agree (Config.system_name system ^ " 0~2") l0 l2)
    [ Config.Massbft; Config.Baseline; Config.Geobft; Config.Steward; Config.Iss ]

let test_ledger_agreement () =
  let eng, _, _ = run_engine () in
  let la = Engine.ledger_of eng ~gid:0 in
  let lb = Engine.ledger_of eng ~gid:1 in
  check_bool "ledgers verify" true (Ledger.verify la && Ledger.verify lb);
  let common = min (Ledger.height la) (Ledger.height lb) in
  check_bool "nonempty ledgers" true (common > 5);
  check_int "hash-linked prefix identical" common (Ledger.equal_prefix la lb)

let test_determinism_across_runs () =
  (* Same seed, same cluster: identical executed order and identical
     committed counts. *)
  let run () =
    let eng, _, _ = run_engine () in
    (Engine.executed_ids eng ~gid:0, committed eng)
  in
  let ids1, n1 = run () in
  let ids2, n2 = run () in
  check_int "same committed count" n1 n2;
  prefix_agree "same executed order" ids1 ids2;
  check_int "same length" (List.length ids1) (List.length ids2)

(* ------------------------------------------------------------------ *)
(* Per-group FIFO and pipeline sanity                                  *)
(* ------------------------------------------------------------------ *)

let test_per_group_fifo_execution () =
  let eng, _, _ = run_engine () in
  let last = Hashtbl.create 4 in
  List.iter
    (fun (e : Types.entry_id) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt last e.Types.gid) in
      check_int
        (Printf.sprintf "group %d in seq order" e.Types.gid)
        (prev + 1) e.Types.seq;
      Hashtbl.replace last e.Types.gid e.Types.seq)
    (Engine.executed_ids eng ~gid:0)

let test_throughput_ranking () =
  (* The headline result in miniature: MassBFT beats Baseline beats
     Steward on the same cluster. Full-size batches so that WAN
     bandwidth (not the batch timer) is the binding resource. *)
  let tput system =
    let cfg = { (small_cfg ~system ()) with Config.max_batch = 500 } in
    let eng, _, _ =
      run_engine ~until:10.0 ~cfg
        ~spec:(Clusters.nationwide ~nodes_per_group:7 ()) ()
    in
    committed eng
  in
  let m = tput Config.Massbft in
  let b = tput Config.Baseline in
  let s = tput Config.Steward in
  check_bool (Printf.sprintf "massbft %d > baseline %d" m b) true (m > b);
  check_bool (Printf.sprintf "baseline %d > steward %d" b s) true (b > s)

let test_wan_traffic_advantage () =
  (* Encoded bijective replication moves fewer WAN bytes per executed
     entry than Baseline's f+1 full copies (Figure 10's phenomenon).
     Needs 7-node groups: at n = 4, f + 1 = 2 copies matches the
     erasure redundancy and the advantage vanishes. *)
  let per_entry system =
    let cfg = { (small_cfg ~system ()) with Config.max_batch = 200 } in
    let eng, _, _ =
      run_engine ~until:8.0 ~cfg ~spec:(Clusters.nationwide ~nodes_per_group:7 ()) ()
    in
    float_of_int (Engine.wan_bytes eng)
    /. float_of_int (max 1 (Engine.entries_executed_total eng))
  in
  let m = per_entry Config.Massbft in
  let b = per_entry Config.Baseline in
  check_bool (Printf.sprintf "massbft %.0f B/entry < baseline %.0f" m b) true (m < b)

(* ------------------------------------------------------------------ *)
(* Fault tolerance                                                     *)
(* ------------------------------------------------------------------ *)

let test_byzantine_chunk_tampering_tolerated () =
  (* One colluding Byzantine node per 4-node group (f = 1) tampers with
     every chunk it sends or forwards; throughput must survive. *)
  let clean, _, _ = run_engine ~until:8.0 () in
  let byz, _, _ = run_engine ~until:8.0 ~adversary:(tamperers ~from:0.0) () in
  let c = committed clean and b = committed byz in
  check_bool (Printf.sprintf "byzantine run commits (%d vs clean %d)" b c) true
    (b > (c * 6 / 10));
  (* Execution order still agrees across groups. *)
  prefix_agree "agreement under tampering"
    (Engine.executed_ids byz ~gid:0)
    (Engine.executed_ids byz ~gid:1)

let test_byzantine_activation_mid_run () =
  (* Tampering that begins mid-run (the Figure 15 scenario) must not
     stop progress after the activation point. *)
  let eng, _, _ = run_engine ~until:8.0 ~adversary:(tamperers ~from:3.0) () in
  let m = Engine.metrics eng in
  let late =
    List.filter (fun (t, r) -> t >= 4.0 && r > 0.0)
      (Stats.Timeseries.rate_series m.Metrics.txn_rate)
  in
  check_bool "throughput continues after tampering starts" true
    (List.length late >= 3)

let test_group_crash_massbft_recovers_via_takeover () =
  (* Crash group 0 mid-run: ordering stalls until another group takes
     over instance 0 and assigns frozen timestamps; then throughput from
     groups 1 and 2 resumes (Figure 15). *)
  let cfg = { (small_cfg ()) with Config.election_timeout_s = 0.8 } in
  let eng, _, _ = run_engine ~until:14.0 ~cfg ~faults:"@4 crash-group g0" () in
  let m = Engine.metrics eng in
  let series = Stats.Timeseries.rate_series m.Metrics.txn_rate in
  let before = List.filter (fun (t, _) -> t < 4.0) series in
  let after = List.filter (fun (t, r) -> t >= 8.0 && r > 0.0) series in
  check_bool "throughput before crash" true
    (List.exists (fun (_, r) -> r > 0.0) before);
  check_bool
    (Printf.sprintf "throughput resumes after takeover (%d live buckets)"
       (List.length after))
    true
    (List.length after >= 3);
  (* The survivors still agree. *)
  prefix_agree "agreement across survivors"
    (Engine.executed_ids eng ~gid:1)
    (Engine.executed_ids eng ~gid:2)

let test_group_crash_geobft_stalls () =
  (* GeoBFT has no group fault tolerance: a crashed group halts the
     round-based ordering (Table I's "Group failure: No"). *)
  let cfg = small_cfg ~system:Config.Geobft () in
  let eng, _, _ = run_engine ~until:10.0 ~cfg ~faults:"@3 crash-group g0" () in
  let m = Engine.metrics eng in
  let late =
    List.filter (fun (t, r) -> t >= 6.0 && r > 1.0)
      (Stats.Timeseries.rate_series m.Metrics.txn_rate)
  in
  check_int "ordering halts for good" 0 (List.length late)

let test_recovery_transfer_back () =
  (* Crash group 0, recover it later: the cluster keeps making progress
     after recovery and group 0 eventually proposes again. *)
  let cfg = { (small_cfg ()) with Config.election_timeout_s = 0.6 } in
  let eng, _, _ =
    run_engine ~until:18.0 ~cfg
      ~faults:"@3 crash-group g0\n@7 recover-group g0" ()
  in
  let m = Engine.metrics eng in
  let late =
    List.filter (fun (t, r) -> t >= 12.0 && r > 0.0)
      (Stats.Timeseries.rate_series m.Metrics.txn_rate)
  in
  check_bool "progress after recovery" true (List.length late >= 3)

(* ------------------------------------------------------------------ *)
(* Node-level crashes: PBFT view change and leader migration           *)
(* ------------------------------------------------------------------ *)

let group_committed eng g =
  Massbft.Metrics.group_committed (Engine.metrics eng) g

let test_leader_crash_view_change_resumes () =
  (* Crash group 1's acting leader mid-run. The survivors must drive a
     PBFT view change past the dead leader within a few election
     timeouts, migrate the acting-leader role, and resume committing
     the group's own proposals. *)
  let at_crash = ref 0 in
  let eng, _, topo =
    run_engine ~until:12.0
      ~before_run:(fun eng sim _ ->
        Sim.at sim 2.0 (fun () ->
            at_crash := group_committed eng 1;
            Engine.crash_node eng { Topology.g = 1; n = 0 }))
      ()
  in
  check_bool "committed before the crash" true (!at_crash > 0);
  check_bool
    (Printf.sprintf "group 1 resumed committing (%d -> %d)" !at_crash
       (group_committed eng 1))
    true
    (group_committed eng 1 > !at_crash);
  let leader = Engine.acting_leader eng ~gid:1 in
  check_bool "leadership migrated off the dead node" true
    (leader.Topology.n <> 0);
  check_bool "new leader is alive" true (Topology.alive topo leader);
  (* The other groups never depended on the dead replica. *)
  prefix_agree "agreement with a migrated leader"
    (Engine.executed_ids eng ~gid:0)
    (Engine.executed_ids eng ~gid:2)

let test_leader_crash_then_rejoin () =
  (* The crashed ex-leader recovers: it adopts the group's current view
     (post-recovery state transfer) and serves as a follower — the
     migrated leadership stays where the view change put it. *)
  let eng, _, topo =
    run_engine ~until:14.0
      ~before_run:(fun eng sim _ ->
        Sim.at sim 2.0 (fun () -> Engine.crash_node eng { Topology.g = 1; n = 0 });
        Sim.at sim 7.0 (fun () -> Engine.recover_node eng { Topology.g = 1; n = 0 }))
      ()
  in
  check_bool "ex-leader is back up" true
    (Topology.alive topo { Topology.g = 1; n = 0 });
  check_bool "leadership stays migrated" true
    ((Engine.acting_leader eng ~gid:1).Topology.n <> 0);
  check_bool "group keeps committing" true (group_committed eng 1 > 0);
  prefix_agree "agreement after rejoin"
    (Engine.executed_ids eng ~gid:0)
    (Engine.executed_ids eng ~gid:1)

let test_follower_crash_no_migration () =
  (* Losing f non-leader replicas must not disturb leadership: PBFT
     still has its 2f+1 quorum and the acting leader keeps its role. *)
  let eng, _, _ =
    run_engine ~until:8.0
      ~before_run:(fun eng sim _ ->
        Sim.at sim 2.0 (fun () -> Engine.crash_node eng { Topology.g = 0; n = 2 }))
      ()
  in
  check_int "leadership undisturbed" 0 (Engine.acting_leader eng ~gid:0).Topology.n;
  check_bool "group 0 commits through the follower crash" true
    (group_committed eng 0 > 200)

let test_leader_crash_every_system () =
  (* Every system's local layer is PBFT, so an acting-leader crash must
     be survivable everywhere — including systems whose *global* layer
     has no fault tolerance (GeoBFT's note collection and Steward's
     single Raft log both follow the proposer-group leader address). *)
  List.iter
    (fun system ->
      let at_crash = ref 0 in
      let eng, _, _ =
        run_engine ~until:12.0 ~cfg:(small_cfg ~system ())
          ~before_run:(fun eng sim _ ->
            Sim.at sim 2.0 (fun () ->
                at_crash := group_committed eng 1;
                Engine.crash_node eng { Topology.g = 1; n = 0 }))
          ()
      in
      check_bool
        (Printf.sprintf "%s: group 1 resumes after leader crash (%d -> %d)"
           (Config.system_name system) !at_crash (group_committed eng 1))
        true
        (group_committed eng 1 > !at_crash))
    Config.all_systems

(* ------------------------------------------------------------------ *)
(* Heterogeneous configurations                                        *)
(* ------------------------------------------------------------------ *)

let test_unequal_group_sizes () =
  (* Figure 12's setting: a 4-node group among 7-node groups. Async
     ordering must let the big groups outrun the small one. *)
  let spec = small_spec ~group_sizes:[| 4; 7; 7 |] () in
  let eng, _, _ = run_engine ~until:8.0 ~spec () in
  check_bool "progress with mixed sizes" true (committed eng > 500);
  prefix_agree "agreement with mixed sizes"
    (Engine.executed_ids eng ~gid:0)
    (Engine.executed_ids eng ~gid:2)

let test_bandwidth_degradation () =
  (* Figure 14: degrading some nodes' WAN must reduce but not kill
     throughput. Full batches so that bandwidth binds. *)
  let slow eng_count =
    let cfg = { (small_cfg ()) with Config.max_batch = 500 } in
    let eng, _, _ =
      run_engine ~until:10.0 ~cfg
        ~before_run:(fun _ _ topo ->
          for g = 0 to 2 do
            for n = 0 to eng_count - 1 do
              Topology.set_wan_bandwidth topo { Topology.g; n = 3 - n } 2e6
            done
          done)
        ()
    in
    committed eng
  in
  let fast = slow 0 in
  (* Degrading 2 of 4 nodes costs nothing by design: slow senders ship
     their chunks to slow receivers and the n_data fast chunks suffice
     (the paper's "best case", Figure 14). Degrade 3 of 4 so that slow
     chunks are needed for every rebuild. *)
  let degraded = slow 3 in
  check_bool
    (Printf.sprintf "degraded slower (%d < %d)" degraded fast)
    true (degraded < fast);
  check_bool "degraded still alive" true (degraded > 200)

let test_more_groups () =
  (* Figure 13b's direction: 5 groups still work. *)
  let spec = Clusters.nationwide ~groups:5 ~nodes_per_group:4 () in
  let eng, _, _ = run_engine ~until:6.0 ~spec () in
  check_bool "5-group cluster commits" true (committed eng > 200);
  prefix_agree "5-group agreement"
    (Engine.executed_ids eng ~gid:0)
    (Engine.executed_ids eng ~gid:4)

let test_workloads_all_run () =
  List.iter
    (fun wl ->
      let cfg = { (small_cfg ()) with Config.workload = wl } in
      let eng, _, _ = run_engine ~until:5.0 ~cfg () in
      check_bool
        (Massbft_workload.Workload.kind_name wl ^ " commits")
        true (committed eng > 100))
    Massbft_workload.Workload.all_kinds

(* ------------------------------------------------------------------ *)
(* Crash with in-flight entries: the unwedge path                      *)
(* ------------------------------------------------------------------ *)

let test_crash_with_lost_content_unwedges () =
  (* Regression for the head-of-line wedge: the crashed leader's final
     in-flight entries may have no content anywhere (their chunks never
     finished dissemination). The takeover leader must no-op them after
     fetches fail, or every instance wedges behind them. Byzantine
     colluders are enabled too, matching the paper's Figure 15 setup. *)
  let cfg =
    {
      (small_cfg ()) with
      Config.max_batch = 200;
      election_timeout_s = 0.8;
    }
  in
  let eng, _, _ =
    run_engine ~until:16.0 ~cfg ~faults:"@4 crash-group g0"
      ~adversary:(tamperers ~from:1.0) ()
  in
  let m = Engine.metrics eng in
  let late =
    List.filter (fun (t, r) -> t >= 12.0 && r > 0.0)
      (Stats.Timeseries.rate_series m.Metrics.txn_rate)
  in
  check_bool
    (Printf.sprintf "survivors resume after unwedge (%d live buckets)"
       (List.length late))
    true
    (List.length late >= 3);
  prefix_agree "agreement preserved through the unwedge"
    (Engine.executed_ids eng ~gid:1)
    (Engine.executed_ids eng ~gid:2)

(* ------------------------------------------------------------------ *)
(* Ablation flags                                                      *)
(* ------------------------------------------------------------------ *)

let test_serial_vts_variant_works () =
  (* Figure 7a's two-phase assignment: same agreement, more latency. *)
  let cfg = { (small_cfg ()) with Config.overlapped_vts = false } in
  let eng, _, _ = run_engine ~cfg () in
  check_bool "serial variant commits" true (committed eng > 200);
  prefix_agree "serial variant agrees"
    (Engine.executed_ids eng ~gid:0)
    (Engine.executed_ids eng ~gid:2)

let test_serial_vts_slower_than_overlapped () =
  let lat overlapped =
    let cfg = { (small_cfg ()) with Config.overlapped_vts = overlapped } in
    let eng, _, _ = run_engine ~until:8.0 ~cfg () in
    Massbft.Metrics.mean_latency_ms (Engine.metrics eng)
  in
  let fast = lat true and slow = lat false in
  check_bool
    (Printf.sprintf "overlapped faster (%.1f < %.1f ms)" fast slow)
    true (fast < slow)

let test_no_reorder_variant_works () =
  let cfg = { (small_cfg ()) with Config.reorder = false } in
  let eng, _, _ = run_engine ~cfg () in
  check_bool "plain Aria commits" true (committed eng > 200)

(* ------------------------------------------------------------------ *)
(* Cross-workload agreement                                            *)
(* ------------------------------------------------------------------ *)

let test_agreement_on_every_workload () =
  List.iter
    (fun wl ->
      let cfg = { (small_cfg ()) with Config.workload = wl } in
      let eng, _, _ = run_engine ~until:5.0 ~cfg () in
      prefix_agree
        (Massbft_workload.Workload.kind_name wl ^ " agreement")
        (Engine.executed_ids eng ~gid:0)
        (Engine.executed_ids eng ~gid:1))
    Massbft_workload.Workload.all_kinds

let test_tpcc_commit_ratio_below_kv () =
  (* Figure 8d's story: TPC-C's Payment hotspots produce more Aria
     conflicts than the key-value workloads. *)
  let ratio wl =
    let cfg = { (small_cfg ()) with Config.workload = wl; Config.workload_scale = 0.01 } in
    let eng, _, _ = run_engine ~until:6.0 ~cfg () in
    Massbft.Metrics.commit_ratio (Engine.metrics eng)
  in
  let tpcc = ratio Massbft_workload.Workload.Tpcc in
  let sb = ratio Massbft_workload.Workload.Smallbank in
  check_bool
    (Printf.sprintf "tpcc ratio %.3f < smallbank %.3f" tpcc sb)
    true (tpcc < sb)

(* ------------------------------------------------------------------ *)
(* ISS epoch gating                                                    *)
(* ------------------------------------------------------------------ *)

let test_iss_respects_epoch_barrier () =
  (* An ISS group never executes an epoch-k entry before every round of
     epoch k-1 has executed: examine the executed sequence. *)
  let eng, _, _ = run_engine ~cfg:(small_cfg ~system:Config.Iss ()) () in
  let ids = Engine.executed_ids eng ~gid:0 in
  check_bool "progress" true (List.length ids > 20);
  (* Round r = seq; epochs are 5 rounds: by the time any entry of epoch
     e appears, all 3*5 entries of epoch e-1 must have appeared. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (e : Types.entry_id) ->
      let epoch = (e.Types.seq - 1) / 5 in
      if epoch > 0 then begin
        for r = (epoch - 1) * 5 + 1 to epoch * 5 do
          for g = 0 to 2 do
            check_bool
              (Printf.sprintf "epoch %d entry needs (%d,%d) first" epoch g r)
              true
              (Hashtbl.mem seen (g, r))
          done
        done
      end;
      Hashtbl.replace seen (e.Types.gid, e.Types.seq) ())
    ids

(* ------------------------------------------------------------------ *)
(* Golden determinism fixtures                                         *)
(* ------------------------------------------------------------------ *)

module Golden = Golden_fixture

(* The files under test/golden/ were recorded against the pre-refactor
   monolithic engine (see golden_record.ml). The staged engine must
   reproduce every fingerprint byte-for-byte: committed counts, WAN/LAN
   bytes, the store fingerprint, the full executed order of every
   group, and (from a second, observed and traced run) the digest of
   the metrics and trace exports. *)
let test_golden_fixtures () =
  List.iter
    (fun system ->
      let name = Config.system_name system in
      let recorded =
        Golden.load (Filename.concat "golden" (Golden.file_of_system system))
      in
      let fresh = Golden.capture ~system () in
      check_int (name ^ " committed") recorded.Golden.committed
        fresh.Golden.committed;
      check_int (name ^ " entries executed") recorded.Golden.entries
        fresh.Golden.entries;
      check_int (name ^ " wan bytes") recorded.Golden.wan fresh.Golden.wan;
      check_int (name ^ " lan bytes") recorded.Golden.lan fresh.Golden.lan;
      Alcotest.(check string)
        (name ^ " store fingerprint")
        recorded.Golden.store fresh.Golden.store;
      Alcotest.(check (option string))
        (name ^ " exports digest")
        recorded.Golden.exports
        (Some (Golden.capture_exports ~system ()));
      Array.iteri
        (fun g ids ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s executed order g%d" name g)
            ids
            fresh.Golden.executed.(g))
        recorded.Golden.executed)
    Config.all_systems

let test_golden_roundtrip () =
  (* The fixture format itself: parse (print x) = x. *)
  let g = Golden.capture ~system:Config.Geobft () in
  let g' = Golden.of_string (Golden.to_string g) in
  Alcotest.(check string) "round-trip" (Golden.to_string g) (Golden.to_string g')

(* ------------------------------------------------------------------ *)
(* debug_dump                                                          *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let count_occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

(* Raft instances per leader: one per group, one (Steward), or none
   (GeoBFT). *)
let raft_instances system =
  match Config.global_of system with
  | Config.Per_group_raft -> 3
  | Config.Single_raft -> 1
  | Config.Direct_broadcast -> 0

let test_debug_dump system () =
  (* Dump once mid-run (inside a simulation callback — it must not
     raise with consensus in flight) and once at the end. *)
  let mid_dump = ref "" in
  let eng, _, _ =
    run_engine ~cfg:(small_cfg ~system ())
      ~before_run:(fun eng sim _ ->
        Sim.at sim 3.0 (fun () -> mid_dump := Engine.debug_dump eng))
      ()
  in
  let name = Config.system_name system in
  let instances = raft_instances system in
  check_bool (name ^ " mid-run dump non-empty") true
    (String.length !mid_dump > 0);
  let final = Engine.debug_dump eng in
  check_bool (name ^ " final dump non-empty") true (String.length final > 0);
  for g = 0 to 2 do
    check_bool
      (Printf.sprintf "%s dump covers leader g%d" name g)
      true
      (contains final (Printf.sprintf "leader g%d" g))
  done;
  for inst = 0 to instances - 1 do
    check_bool
      (Printf.sprintf "%s dump shows instance %d's role" name inst)
      true
      (contains final (Printf.sprintf "inst %d: role=" inst))
  done;
  (* One role line per (leader, instance) pair: every group reports
     every Raft instance's role. *)
  check_int
    (name ^ " role lines cover every group x instance")
    (3 * instances)
    (count_occurrences final "role=");
  (* The VTS clocks and the orderer's head vector are VTS state. *)
  let vts = Config.ordering_of system = Config.Async_vts in
  check_bool (name ^ " dump shows orderer heads only under VTS") vts
    (contains final "head[0]");
  check_bool (name ^ " dump shows clk_of only under VTS") vts
    (contains final "clk_of=")

(* A round barrier closing on a head whose content is missing places
   every group's entry and pumps once per placement; the pump arms one
   content timeout for that head, not one per pump, and the timeout
   still hands the head to the fetch lane. *)
let test_closing_round_arms_one_head_timer () =
  let d =
    Deployment.build ~faults:(Fault_spec.of_string "") ~adversary:(Adv_spec.of_string "")
      ~spec:(small_spec ()) ~cfg:(small_cfg ~system:Config.Baseline ()) ()
  in
  let c = Engine.ctx d.engine in
  let l = c.Massbft.Node_ctx.leaders.(0) in
  let ng = Engine.n_groups d.engine in
  let before = Sim.pending_total d.sim in
  for g = 0 to ng - 1 do
    Massbft.Ordering.mark_round_ready c l { Types.gid = g; seq = 1 }
  done;
  check_int "the round placed every group's entry" ng
    (Queue.length l.Massbft.Node_ctx.l_exec_q);
  check_int "one timer for the content-less head" 1 (Sim.pending_total d.sim - before);
  Sim.run d.sim ~until:(Config.fetch_timeout_s +. 1e-6);
  check_bool "the timeout wants the head fetched" true
    (Massbft.Node_ctx.Entry_tbl.mem l.Massbft.Node_ctx.l_fetching
       { Types.gid = 0; seq = 1 })

(* The slow-receiver lane counts accept notes by noting group (§V-C):
   with 5 groups f_g = 2, so a note delivered twice from one group must
   not stamp the entry, while notes from two groups must. *)
let test_accept_notes_count_distinct_groups () =
  let d =
    Deployment.build ~faults:(Fault_spec.of_string "") ~adversary:(Adv_spec.of_string "")
      ~spec:(Clusters.nationwide ~groups:5 ~nodes_per_group:4 ()) ~cfg:(small_cfg ()) ()
  in
  let c = Engine.ctx d.engine in
  let l = c.Massbft.Node_ctx.leaders.(0) in
  let eid = { Types.gid = 1; seq = 1 } in
  let stamped () =
    match l.Massbft.Node_ctx.l_ord with
    | Massbft.Node_ctx.Async_vts v ->
        Massbft.Node_ctx.Bitset.mem
          v.Massbft.Node_ctx.ts.(0).(eid.Types.gid).Massbft.Node_ctx.ts_seen eid.Types.seq
    | Sync_rounds _ | Epoch_rounds _ | Global_log -> Alcotest.fail "MassBFT orders by VTS"
  in
  let note g =
    c.Massbft.Node_ctx.deliver c ~src:(Engine.acting_leader d.engine ~gid:g)
      ~dst:l.Massbft.Node_ctx.l_addr (Massbft.Node_ctx.Accept_note { eid })
  in
  note 2;
  note 2;
  check_bool "one group's note twice does not stamp" false (stamped ());
  note 3;
  check_bool "notes from two groups stamp" true (stamped ())

(* GeoBFT releases a proposer's pipeline slot once every group its
   copy went to has noted the entry, counting noting groups as PBFT and
   SBFT count signers: one group's note delivered twice releases
   nothing, and the last group's note releases the slot exactly once.
   The deployment's own notes are withheld, so the test's are the only
   ones. *)
let test_recv_notes_count_distinct_groups () =
  let withhold ~src:_ ~dst:_ ~bulk:_ ~bytes:_ (m : Massbft.Node_ctx.msg) =
    match m with Massbft.Node_ctx.Recv_note _ -> Some [] | _ -> None
  in
  let eng, _, _ =
    run_engine ~until:2.0 ~cfg:(small_cfg ~system:Config.Geobft ())
      ~before_run:(fun eng _ _ -> Engine.set_adversary eng (Some withhold))
      ()
  in
  let c = Engine.ctx eng in
  let l = c.Massbft.Node_ctx.leaders.(0) in
  let pipeline = (Engine.config eng).Config.pipeline in
  let in_flight () = l.Massbft.Node_ctx.l_in_flight in
  let proposed () = Engine.proposed_seqs eng ~gid:0 in
  check_int "no note arrived: the pipeline is full" pipeline (in_flight ());
  let before = proposed () in
  let note g =
    c.Massbft.Node_ctx.deliver c ~src:(Engine.acting_leader eng ~gid:g)
      ~dst:l.Massbft.Node_ctx.l_addr
      (Massbft.Node_ctx.Recv_note { eid = { Types.gid = 0; seq = 1 } })
  in
  note 1;
  note 1;
  check_int "group 1's note twice holds the slot" pipeline (in_flight ());
  check_int "group 1's note twice proposes nothing" before (proposed ());
  note 2;
  check_int "group 2's note releases the slot once" (before + 1) (proposed ());
  check_int "the released slot is refilled" pipeline (in_flight ());
  note 2;
  check_int "a late note releases nothing" (before + 1) (proposed ())

(* ------------------------------------------------------------------ *)
(* Table II wiring                                                     *)
(* ------------------------------------------------------------------ *)

(* Messages sent by kind, through a pass-through adversary hook:
   returning [None] keeps every send on the exact fault-free path. *)
type mix = {
  mutable chunks : int;  (* Chunk and Chunk_fwd *)
  mutable copies : int;
  mutable follower_copies : int;  (* Copy sent by a non-leader node *)
  raft_by_inst : int array;
  mutable ts_appends : int;  (* Raft appends carrying a Ts record *)
  mutable accept_notes : int;
  mutable recv_notes : int;
}

let message_mix system =
  let mix =
    {
      chunks = 0;
      copies = 0;
      follower_copies = 0;
      raft_by_inst = Array.make 3 0;
      ts_appends = 0;
      accept_notes = 0;
      recv_notes = 0;
    }
  in
  let hook ~(src : Topology.addr) ~dst:_ ~bulk:_ ~bytes:_ (m : Massbft.Node_ctx.msg) =
    (match m with
    | Massbft.Node_ctx.Chunk _ | Chunk_fwd _ -> mix.chunks <- mix.chunks + 1
    | Copy _ ->
        mix.copies <- mix.copies + 1;
        if src.Topology.n <> 0 then mix.follower_copies <- mix.follower_copies + 1
    | Raft_m { inst; rmsg } -> (
        mix.raft_by_inst.(inst) <- mix.raft_by_inst.(inst) + 1;
        match rmsg with
        | Massbft_consensus.Raft.Append { entry = Massbft.Node_ctx.Ts _; _ } ->
            mix.ts_appends <- mix.ts_appends + 1
        | _ -> ())
    | Accept_note _ -> mix.accept_notes <- mix.accept_notes + 1
    | Recv_note _ -> mix.recv_notes <- mix.recv_notes + 1
    | Local _ | Copy_fwd _ | Accept_req _ | Accept_vote _ | Fetch_req _ -> ());
    None
  in
  ignore
    (run_engine ~until:2.0 ~cfg:(small_cfg ~system ())
       ~before_run:(fun eng _ _ -> Engine.set_adversary eng (Some hook))
       ());
  mix

(* Each system's messages carry the signature of its three Table II
   axes: what replication ships, which Raft instances talk, and whether
   the VTS accept and Ts lanes run. *)
let test_table2_message_mix () =
  List.iter
    (fun system ->
      let m = message_mix system in
      Printf.printf
        "%-8s chunks %d copies %d (followers %d) raft [%s] ts %d accept %d recv %d\n"
        (Config.system_name system) m.chunks m.copies m.follower_copies
        (String.concat ";" (Array.to_list (Array.map string_of_int m.raft_by_inst)))
        m.ts_appends m.accept_notes m.recv_notes;
      let name what = Printf.sprintf "%s: %s" (Config.system_name system) what in
      (match Config.replication_of system with
      | Config.Encoded_bijective ->
          check_bool (name "chunks") true (m.chunks > 0);
          check_int (name "no copies") 0 m.copies
      | Config.Bijective_full ->
          check_int (name "no chunks") 0 m.chunks;
          check_bool (name "every node ships copies") true (m.follower_copies > 0)
      | Config.Leader_oneway ->
          check_int (name "no chunks") 0 m.chunks;
          check_bool (name "copies") true (m.copies > 0);
          check_int (name "only leaders ship copies") 0 m.follower_copies);
      (match Config.global_of system with
      | Config.Per_group_raft ->
          Array.iteri
            (fun inst n ->
              check_bool (name (Printf.sprintf "raft instance %d talks" inst)) true (n > 0))
            m.raft_by_inst
      | Config.Single_raft ->
          check_bool (name "raft instance 0 talks") true (m.raft_by_inst.(0) > 0);
          check_int (name "no other instance") 0
            (m.raft_by_inst.(1) + m.raft_by_inst.(2))
      | Config.Direct_broadcast ->
          check_bool (name "receive notes") true (m.recv_notes > 0);
          check_int (name "no raft") 0 (Array.fold_left ( + ) 0 m.raft_by_inst));
      match Config.ordering_of system with
      | Config.Async_vts ->
          check_bool (name "accept notes") true (m.accept_notes > 0);
          check_bool (name "Ts records") true (m.ts_appends > 0)
      | Config.Sync_rounds | Config.Epoch_rounds | Config.Global_log ->
          check_int (name "no accept notes") 0 m.accept_notes;
          check_int (name "no Ts records") 0 m.ts_appends)
    Config.all_systems

(* ------------------------------------------------------------------ *)
(* Per-entry state lifetime                                            *)
(* ------------------------------------------------------------------ *)

(* One system per leader-state variant: per-group Raft with VTS,
   rounds and epochs; Steward's single Raft with its global log; GeoBFT's
   direct broadcast. *)
let census_systems =
  [ Config.Massbft; Config.Baseline; Config.Iss; Config.Steward; Config.Geobft ]

(* Finished rebuilds keep only their done bit, and no Raft replica
   keeps an ack set at or below its commit index. *)
let check_released system eng =
  let c = Census.take (Engine.ctx eng) in
  print_string (Census.to_string c);
  let name what = Printf.sprintf "%s: %s" (Config.system_name system) what in
  if Config.replication_of system = Config.Encoded_bijective then
    check_bool (name "rebuilds finished") true (c.Census.rebuilt > 0);
  check_int (name "finished rebuilds keep no classifier") 0
    c.Census.unreleased_rebuilds;
  check_int (name "no acks at or below a commit index") 0 c.Census.stale_acks;
  check_bool (name "census walks the engine") true
    (List.for_all (fun (_, w) -> w > 0) c.Census.words)

let test_census_released_state () =
  List.iter
    (fun system ->
      let eng, _, _ = run_engine ~until:3.0 ~cfg:(small_cfg ~system ()) () in
      check_released system eng)
    census_systems

let test_census_after_view_change () =
  let eng, _, _ =
    run_engine ~until:8.0
      ~before_run:(fun eng sim _ ->
        Sim.at sim 1.0 (fun () -> Engine.crash_node eng { Topology.g = 1; n = 0 }))
      ()
  in
  check_bool "view change moved group 1's leader" true
    ((Engine.acting_leader eng ~gid:1).Topology.n <> 0);
  check_released Config.Massbft eng

(* Per-entry state costs bits, plus one word per decided PBFT slot.
   Run to 3 s and on to 9 s, one deployment keeps its open PBFT slots
   within the pipeline, and every per-entry holder (a node's content and
   done bits, a leader's Ts marks, accept notes and receive notes,
   Steward's proposal bits, a replica's decided digests) within two words per entry it indexes,
   plus a constant for its headers. A hash table keyed by entry costs
   five or more words per binding and fails this. *)
let test_census_per_entry_bounded () =
  let check_bounded system c =
    print_string (Census.to_string c);
    let at what =
      Printf.sprintf "%s, %d entries executed: %s" (Config.system_name system)
        c.Census.executed what
    in
    check_bool (at "some") true (c.Census.executed > 100);
    check_bool
      (at (Printf.sprintf "at most 8 open PBFT slots per replica (%d)" c.Census.max_open_slots))
      true
      (c.Census.max_open_slots <= 8);
    List.iter
      (fun (h : Census.holder) ->
        check_bool
          (at
             (Printf.sprintf "%s: %d words for %d entries" h.Census.h_name h.Census.h_words
                h.Census.h_entries))
          true
          (h.Census.h_words <= (2 * h.Census.h_entries) + 256))
      c.Census.holders
  in
  List.iter
    (fun system ->
      let eng, sim, _ = run_engine ~until:3.0 ~cfg:(small_cfg ~system ()) () in
      let early = Census.take (Engine.ctx eng) in
      check_bounded system early;
      Sim.run sim ~until:9.0;
      let late = Census.take (Engine.ctx eng) in
      check_bounded system late;
      check_bool
        (Config.system_name system ^ ": execution went on")
        true
        (late.Census.executed > 2 * early.Census.executed))
    census_systems

let () =
  Alcotest.run "massbft_engine"
    [
      ( "progress",
        [
          Alcotest.test_case "all systems" `Slow test_all_systems_make_progress;
          Alcotest.test_case "all groups propose" `Quick test_all_groups_propose;
          Alcotest.test_case "steward order" `Quick test_steward_single_proposer_order;
          Alcotest.test_case "all workloads" `Slow test_workloads_all_run;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "execution order across groups" `Slow test_execution_agreement;
          Alcotest.test_case "ledger prefix" `Quick test_ledger_agreement;
          Alcotest.test_case "run determinism" `Quick test_determinism_across_runs;
          Alcotest.test_case "per-group FIFO" `Quick test_per_group_fifo_execution;
        ] );
      ( "performance",
        [
          Alcotest.test_case "throughput ranking" `Slow test_throughput_ranking;
          Alcotest.test_case "WAN advantage" `Slow test_wan_traffic_advantage;
        ] );
      ( "faults",
        [
          Alcotest.test_case "byzantine tampering" `Slow test_byzantine_chunk_tampering_tolerated;
          Alcotest.test_case "mid-run activation" `Slow test_byzantine_activation_mid_run;
          Alcotest.test_case "group crash takeover" `Slow test_group_crash_massbft_recovers_via_takeover;
          Alcotest.test_case "geobft stalls on crash" `Slow test_group_crash_geobft_stalls;
          Alcotest.test_case "recovery transfer-back" `Slow test_recovery_transfer_back;
          Alcotest.test_case "leader crash view change" `Slow
            test_leader_crash_view_change_resumes;
          Alcotest.test_case "leader crash then rejoin" `Slow
            test_leader_crash_then_rejoin;
          Alcotest.test_case "follower crash no migration" `Slow
            test_follower_crash_no_migration;
          Alcotest.test_case "leader crash every system" `Slow
            test_leader_crash_every_system;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "unwedge after lossy crash" `Slow test_crash_with_lost_content_unwedges;
          Alcotest.test_case "serial VTS variant" `Quick test_serial_vts_variant_works;
          Alcotest.test_case "overlapping saves latency" `Slow test_serial_vts_slower_than_overlapped;
          Alcotest.test_case "no-reorder variant" `Quick test_no_reorder_variant_works;
          Alcotest.test_case "agreement on all workloads" `Slow test_agreement_on_every_workload;
          Alcotest.test_case "tpcc hotspot ratio" `Slow test_tpcc_commit_ratio_below_kv;
          Alcotest.test_case "ISS epoch barrier" `Quick test_iss_respects_epoch_barrier;
          Alcotest.test_case "closing round arms one head timer" `Quick
            test_closing_round_arms_one_head_timer;
          Alcotest.test_case "accept notes count distinct groups" `Quick
            test_accept_notes_count_distinct_groups;
          Alcotest.test_case "receive notes count distinct groups" `Quick
            test_recv_notes_count_distinct_groups;
        ] );
      ( "heterogeneous",
        [
          Alcotest.test_case "unequal group sizes" `Quick test_unequal_group_sizes;
          Alcotest.test_case "bandwidth degradation" `Slow test_bandwidth_degradation;
          Alcotest.test_case "five groups" `Quick test_more_groups;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fixture round-trip" `Quick test_golden_roundtrip;
          Alcotest.test_case "all systems reproduce recordings" `Slow
            test_golden_fixtures;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "Table II message mix" `Quick test_table2_message_mix;
        ]
        @ List.map
            (fun system ->
              Alcotest.test_case
                ("debug dump " ^ String.lowercase_ascii (Config.system_name system))
                `Quick (test_debug_dump system))
            Config.all_systems
        @ [
          Alcotest.test_case "census released state" `Quick
            test_census_released_state;
          Alcotest.test_case "census after view change" `Slow
            test_census_after_view_change;
          Alcotest.test_case "census per-entry state bounded" `Quick
            test_census_per_entry_bounded;
        ] );
    ]
