(* Tests for the discrete-event simulator: event ordering, timers, NIC
   serialization, CPU queueing, and the geo topology's latency and
   bandwidth arithmetic. *)

open Massbft_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Sim core                                                            *)
(* ------------------------------------------------------------------ *)

let test_event_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim 3.0 (fun () -> log := 3 :: !log));
  ignore (Sim.at sim 1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.at sim 2.0 (fun () -> log := 2 :: !log));
  Sim.run_until_idle sim ();
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log)

let test_fifo_at_equal_times () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 10 do
    ignore (Sim.at sim 1.0 (fun () -> log := i :: !log))
  done;
  Sim.run_until_idle sim ();
  Alcotest.(check (list int))
    "insertion order at equal time"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref 0.0 in
  ignore (Sim.after sim 2.5 (fun () -> seen := Sim.now sim));
  Sim.run_until_idle sim ();
  check_float "clock at event time" 2.5 !seen;
  check_float "clock stays" 2.5 (Sim.now sim)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.after sim 1.0 (fun () ->
         log := "a" :: !log;
         ignore (Sim.after sim 1.0 (fun () -> log := "c" :: !log))));
  ignore (Sim.after sim 1.5 (fun () -> log := "b" :: !log));
  Sim.run_until_idle sim ();
  Alcotest.(check (list string)) "nested order" [ "a"; "b"; "c" ] (List.rev !log)

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.after sim 1.0 (fun () -> fired := true) in
  Sim.cancel h;
  Sim.run_until_idle sim ();
  check_bool "cancelled timer silent" false !fired;
  (* Double-cancel is a no-op. *)
  Sim.cancel h

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 5 do
    ignore (Sim.at sim (float_of_int i) (fun () -> incr count))
  done;
  Sim.run sim ~until:3.0;
  check_int "only events <= until" 3 !count;
  check_float "clock moved to until" 3.0 (Sim.now sim);
  Sim.run sim ~until:10.0;
  check_int "remaining events" 5 !count

let test_past_scheduling_rejected () =
  let sim = Sim.create () in
  ignore (Sim.after sim 5.0 (fun () -> ()));
  Sim.run sim ~until:6.0;
  check_bool "at in the past raises" true
    (try
       ignore (Sim.at sim 1.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true);
  check_bool "negative delay raises" true
    (try
       ignore (Sim.after sim (-1.0) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_pending () =
  let sim = Sim.create () in
  let a = Sim.after sim 1.0 (fun () -> ()) in
  ignore (Sim.after sim 2.0 (fun () -> ()));
  check_int "two pending" 2 (Sim.pending sim);
  Sim.cancel a;
  check_int "one after cancel" 1 (Sim.pending sim);
  (* Double-cancel must not decrement twice. *)
  Sim.cancel a;
  check_int "idempotent cancel" 1 (Sim.pending sim);
  Sim.run_until_idle sim ();
  check_int "drained" 0 (Sim.pending sim)

let test_pending_excludes_fired () =
  let sim = Sim.create () in
  let h = Sim.after sim 1.0 (fun () -> ()) in
  ignore (Sim.after sim 2.0 (fun () -> ()));
  Sim.run sim ~until:1.5;
  check_int "fired event no longer pending" 1 (Sim.pending sim);
  (* Cancelling an already-fired timer is a no-op on the counter. *)
  Sim.cancel h;
  check_int "cancel after fire is a no-op" 1 (Sim.pending sim)

let test_cancel_compaction_bounds_heap () =
  (* Regression for the lazy-deletion leak: schedule+cancel 100k timers
     (the batch-timer / heartbeat / retry-lane pattern) and assert the
     heap evicts the garbage instead of accumulating every cancelled
     event until its deadline. *)
  let sim = Sim.create () in
  let fired = ref 0 in
  let keepers = ref 0 in
  for i = 0 to 99_999 do
    let h =
      Sim.after sim (1.0 +. (float_of_int i *. 1e-5)) (fun () -> incr fired)
    in
    (* Keep 1 in 100, cancel the rest — heartbeats that actually fire
       are the rare case. *)
    if i mod 100 <> 0 then Sim.cancel h else incr keepers
  done;
  check_int "live count exact" !keepers (Sim.pending sim);
  check_bool
    (Printf.sprintf "heap stays bounded (%d entries for %d live)"
       (Sim.heap_size sim) (Sim.pending sim))
    true
    (Sim.heap_size sim <= (2 * Sim.pending sim) + 64);
  Sim.run_until_idle sim ();
  check_int "only keepers fired" !keepers !fired;
  check_int "empty after run" 0 (Sim.heap_size sim)

let test_churn_dispatch_order_unchanged () =
  (* Compaction must not reorder or drop survivors: a run with heavy
     cancellation churn dispatches exactly the uncancelled timers, in
     (time, insertion) order — i.e. the observed schedule is
     bit-identical to what an uncompacted queue would produce. *)
  let sim = Sim.create () in
  let rng = Massbft_util.Rng.create 42L in
  let fired = ref [] in
  let expected = ref [] in
  for i = 0 to 9_999 do
    let time = 1.0 +. Massbft_util.Rng.float rng 10.0 in
    let h = Sim.at sim time (fun () -> fired := i :: !fired) in
    if i mod 3 = 0 then Sim.cancel h else expected := (time, i) :: !expected
  done;
  Sim.run_until_idle sim ();
  let expected_order =
    List.map snd
      (List.sort
         (fun (ta, ia) (tb, ib) ->
           let c = compare ta tb in
           if c <> 0 then c else compare ia ib)
         !expected)
  in
  Alcotest.(check (list int))
    "survivors fire in (time, seq) order" expected_order (List.rev !fired)

(* ------------------------------------------------------------------ *)
(* Nic                                                                 *)
(* ------------------------------------------------------------------ *)

let test_nic_serialization_time () =
  let sim = Sim.create () in
  (* 20 Mbps: 1 MB takes 0.4 s. *)
  let nic = Nic.create sim ~bandwidth_bps:20e6 in
  let done_at = ref 0.0 in
  Nic.transmit nic ~bytes:1_000_000 (fun () -> done_at := Sim.now sim);
  Sim.run_until_idle sim ();
  check_float "1MB at 20Mbps" 0.4 !done_at

let test_nic_fifo_queueing () =
  let sim = Sim.create () in
  let nic = Nic.create sim ~bandwidth_bps:8e6 in
  (* 1 Mbit frames at 8 Mbps: 0.125 s each, queued back-to-back. *)
  let times = ref [] in
  for _ = 1 to 3 do
    Nic.transmit nic ~bytes:125_000 (fun () -> times := Sim.now sim :: !times)
  done;
  Sim.run_until_idle sim ();
  (match List.rev !times with
  | [ t1; t2; t3 ] ->
      check_float "first" 0.125 t1;
      check_float "second queued" 0.25 t2;
      check_float "third queued" 0.375 t3
  | _ -> Alcotest.fail "expected three completions");
  check_int "bytes accounted" 375_000 (Nic.bytes_sent nic)

let test_nic_idle_gap () =
  let sim = Sim.create () in
  let nic = Nic.create sim ~bandwidth_bps:8e6 in
  let t2 = ref 0.0 in
  Nic.transmit nic ~bytes:125_000 (fun () -> ());
  (* Second frame arrives after the queue drained: starts fresh. *)
  ignore
    (Sim.after sim 1.0 (fun () ->
         Nic.transmit nic ~bytes:125_000 (fun () -> t2 := Sim.now sim)));
  Sim.run_until_idle sim ();
  check_float "starts at arrival" 1.125 !t2

let test_nic_control_bypasses_bulk () =
  (* Two-class queueing: a control frame must not wait behind a deep
     bulk backlog (it models a separate TCP stream). *)
  let sim = Sim.create () in
  let nic = Nic.create sim ~bandwidth_bps:8e6 in
  (* 10 x 1 Mbit bulk frames: 1.25 s of queue. *)
  for _ = 1 to 10 do
    Nic.transmit ~bulk:true nic ~bytes:125_000 (fun () -> ())
  done;
  let ctrl_done = ref 0.0 in
  Nic.transmit nic ~bytes:125 (fun () -> ctrl_done := Sim.now sim);
  Sim.run_until_idle sim ();
  check_bool
    (Printf.sprintf "control frame fast (%.4f s)" !ctrl_done)
    true (!ctrl_done < 0.01);
  check_int "all bytes accounted" (1_250_000 + 125) (Nic.bytes_sent nic)

let test_nic_bulk_classes_independent () =
  let sim = Sim.create () in
  let nic = Nic.create sim ~bandwidth_bps:8e6 in
  let bulk_done = ref 0.0 and ctrl_done = ref 0.0 in
  Nic.transmit ~bulk:true nic ~bytes:125_000 (fun () -> bulk_done := Sim.now sim);
  Nic.transmit nic ~bytes:125_000 (fun () -> ctrl_done := Sim.now sim);
  Sim.run_until_idle sim ();
  (* Each class serializes independently at the full rate. *)
  check_float "bulk" 0.125 !bulk_done;
  check_float "control" 0.125 !ctrl_done

let test_nic_class_counters () =
  let sim = Sim.create () in
  let nic = Nic.create sim ~bandwidth_bps:8e6 in
  Nic.transmit ~bulk:true nic ~bytes:125_000 (fun () -> ());
  Nic.transmit nic ~bytes:125 (fun () -> ());
  Nic.transmit nic ~bytes:125 (fun () -> ());
  Sim.run_until_idle sim ();
  check_int "bulk bytes" 125_000 (Nic.class_bytes_sent nic Nic.Bulk);
  check_int "ctrl bytes" 250 (Nic.class_bytes_sent nic Nic.Ctrl);
  check_int "combined keeps old semantics" 125_250 (Nic.bytes_sent nic);
  check_float "bulk busy-seconds" 0.125 (Nic.class_busy_seconds nic Nic.Bulk);
  check_float "ctrl busy-seconds" 0.00025 (Nic.class_busy_seconds nic Nic.Ctrl)

let test_nic_backlog_covers_both_classes () =
  let sim = Sim.create () in
  let nic = Nic.create sim ~bandwidth_bps:8e6 in
  Nic.transmit ~bulk:true nic ~bytes:125_000 (fun () -> ());
  Nic.transmit nic ~bytes:250_000 (fun () -> ());
  check_float "bulk backlog" 0.125 (Nic.class_backlog_s nic Nic.Bulk);
  check_float "ctrl backlog" 0.25 (Nic.class_backlog_s nic Nic.Ctrl);
  (* The combined backlog is the max over the class queues: here the
     control queue is the deeper one. *)
  check_float "combined is the max" 0.25 (Nic.backlog_s nic);
  check_float "ctrl_busy_until" 0.25 (Nic.ctrl_busy_until nic);
  Sim.run_until_idle sim ();
  check_float "drained" 0.0 (Nic.backlog_s nic)

let test_nic_zero_bytes () =
  let sim = Sim.create () in
  let nic = Nic.create sim ~bandwidth_bps:1e6 in
  let fired = ref false in
  Nic.transmit nic ~bytes:0 (fun () -> fired := true);
  Sim.run_until_idle sim ();
  check_bool "zero-size completes immediately" true !fired

(* ------------------------------------------------------------------ *)
(* Cpu                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cpu_parallel_cores () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:2 in
  let finishes = ref [] in
  for _ = 1 to 4 do
    Cpu.submit cpu ~seconds:1.0 (fun () -> finishes := Sim.now sim :: !finishes)
  done;
  Sim.run_until_idle sim ();
  (* 4 one-second tasks on 2 cores: pairs at t=1 and t=2. *)
  Alcotest.(check (list (float 1e-9)))
    "two waves" [ 1.0; 1.0; 2.0; 2.0 ]
    (List.sort compare !finishes)

let test_cpu_single_core_fifo () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  let order = ref [] in
  Cpu.submit cpu ~seconds:0.5 (fun () -> order := (1, Sim.now sim) :: !order);
  Cpu.submit cpu ~seconds:0.25 (fun () -> order := (2, Sim.now sim) :: !order);
  Sim.run_until_idle sim ();
  (match List.rev !order with
  | [ (1, t1); (2, t2) ] ->
      check_float "first task" 0.5 t1;
      check_float "second task serialized" 0.75 t2
  | _ -> Alcotest.fail "unexpected order");
  check_float "busy accounting" 0.75 (Cpu.busy_seconds cpu)

let test_cpu_utilization () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:4 in
  Cpu.submit cpu ~seconds:1.0 (fun () -> ());
  Sim.run_until_idle sim ();
  (* 1 core-second over 4 cores for 1 second = 25%. *)
  check_float "utilization" 0.25 (Cpu.utilization cpu ~since:0.0)

let test_cpu_utilization_empty_window () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:4 in
  check_float "empty window" 0.0 (Cpu.utilization cpu ~since:0.0);
  check_float "inverted window" 0.0 (Cpu.utilization cpu ~since:5.0)

let test_cpu_utilization_mid_task_window () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  (* Work is accounted at submit time: a 2 s task shows in full from
     the moment it is accepted, so a 1 s window caps at 1.0. *)
  Cpu.submit cpu ~seconds:2.0 (fun () -> ());
  ignore
    (Sim.at sim 1.0 (fun () ->
         check_float "mid-task, capped" 1.0 (Cpu.utilization cpu ~since:0.0)));
  Sim.run_until_idle sim ();
  check_float "exactly busy over its own span" 1.0
    (Cpu.utilization cpu ~since:0.0)

let test_cpu_utilization_multi_core_partial () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:4 in
  Cpu.submit cpu ~seconds:1.0 (fun () -> ());
  Cpu.submit cpu ~seconds:1.0 (fun () -> ());
  ignore (Sim.at sim 2.0 (fun () -> ()));
  Sim.run_until_idle sim ();
  (* 2 core-seconds over 2 s x 4 cores = 25%. *)
  check_float "partial busy" 0.25 (Cpu.utilization cpu ~since:0.0);
  (* The busy total is cumulative since creation, so a late window sees
     all of it over half the capacity. *)
  check_float "late window" 0.5 (Cpu.utilization cpu ~since:1.0)

let test_cpu_queue_depth () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  check_int "idle" 0 (Cpu.queue_depth cpu);
  Cpu.submit cpu ~seconds:1.0 (fun () -> ());
  Cpu.submit cpu ~seconds:1.0 (fun () -> ());
  check_int "running + queued" 2 (Cpu.queue_depth cpu);
  ignore
    (Sim.at sim 1.5 (fun () -> check_int "one completed" 1 (Cpu.queue_depth cpu)));
  Sim.run_until_idle sim ();
  check_int "drained" 0 (Cpu.queue_depth cpu)

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let spec ?(wan_bps = 20e6) ?(groups = [| 3; 3 |]) () =
  {
    Topology.group_sizes = groups;
    wan_bps;
    lan_bps = 2.5e9;
    rtt = (fun _ _ -> 0.030);
    lan_rtt = 0.0005;
    cores = 8;
  }

let test_topology_shape () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ~groups:[| 4; 7; 2 |] ()) in
  check_int "groups" 3 (Topology.n_groups topo);
  check_int "g0 size" 4 (Topology.group_size topo 0);
  check_int "g1 size" 7 (Topology.group_size topo 1);
  check_int "total nodes" 13 (List.length (Topology.nodes topo));
  check_int "group nodes" 7 (List.length (Topology.group_nodes topo 1));
  check_bool "valid addr" true (Topology.valid_addr topo { g = 1; n = 6 });
  check_bool "invalid addr" false (Topology.valid_addr topo { g = 1; n = 7 })

let test_wan_latency_and_bandwidth () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let arrived = ref 0.0 in
  (* 100 KB over 20 Mbps uplink + 15 ms propagation + 20 Mbps downlink:
     0.04 + 0.015 + 0.04 = 0.095 s. *)
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> arrived := Sim.now sim);
  Sim.run_until_idle sim ();
  check_float "store-and-forward WAN" 0.095 !arrived;
  check_int "wan bytes counted" 100_000 (Topology.wan_bytes_sent topo)

let test_lan_fast_path () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let arrived = ref 0.0 in
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 0; n = 1 } ~bytes:100_000
    (fun () -> arrived := Sim.now sim);
  Sim.run_until_idle sim ();
  (* 2 * (100KB at 2.5Gbps = 0.32ms) + 0.25ms = ~0.89 ms: well under WAN. *)
  check_bool "LAN much faster than WAN" true (!arrived < 0.002);
  check_int "no wan traffic" 0 (Topology.wan_bytes_sent topo);
  check_bool "lan traffic counted" true (Topology.lan_bytes_sent topo = 100_000)

let test_leader_uplink_bottleneck () =
  (* The motivating experiment of the paper in miniature: one sender
     fanning N copies out serializes on its single uplink, so total time
     grows linearly with N. *)
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ~groups:[| 1; 8 |] ()) in
  let last = ref 0.0 in
  for n = 0 to 7 do
    Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n } ~bytes:250_000
      (fun () -> last := Float.max !last (Sim.now sim))
  done;
  Sim.run_until_idle sim ();
  (* Each copy is 0.1 s of uplink; 8 copies ~ 0.8 s + prop + downlink. *)
  check_bool
    (Printf.sprintf "fan-out serializes (%.3f s)" !last)
    true
    (!last > 0.8 && !last < 1.1)

let test_crash_drops_messages () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.crash topo { g = 1; n = 0 };
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> incr delivered);
  (* Crash of the source also suppresses sends. *)
  Topology.crash topo { g = 0; n = 1 };
  Topology.send topo ~src:{ g = 0; n = 1 } ~dst:{ g = 1; n = 1 } ~bytes:10
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "both dropped" 0 !delivered;
  Topology.recover topo { g = 1; n = 0 };
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "delivered after recovery" 1 !delivered

let test_crash_mid_flight () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> incr delivered);
  (* Receiver dies while the message is in flight. *)
  ignore (Sim.after sim 0.01 (fun () -> Topology.crash topo { g = 1; n = 0 }));
  Sim.run_until_idle sim ();
  check_int "in-flight message dropped" 0 !delivered

let test_crash_group () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  Topology.crash_group topo 1;
  List.iter
    (fun a -> check_bool "down" false (Topology.alive topo a))
    (Topology.group_nodes topo 1);
  check_bool "other group fine" true (Topology.alive topo { g = 0; n = 0 });
  Topology.recover_group topo 1;
  check_bool "recovered" true (Topology.alive topo { g = 1; n = 2 })

(* In-flight delivery semantics at crash/recover boundaries: liveness
   is gated on the receiver's state at *delivery* time (a restart-then-
   arrive packet reaches the recovered process), while the sender only
   gates egress — bytes already serialized stay in flight. The fault
   injector and the engine's recovery logic both rely on exactly these
   semantics. *)

let test_crash_then_recover_before_arrival_delivers () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  (* 100 KB at 20 Mbps: 0.04 s uplink + propagation + 0.04 s downlink,
     so delivery lands well after 0.08 s. *)
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> incr delivered);
  ignore (Sim.after sim 0.010 (fun () -> Topology.crash topo { g = 1; n = 0 }));
  ignore (Sim.after sim 0.050 (fun () -> Topology.recover topo { g = 1; n = 0 }));
  Sim.run_until_idle sim ();
  check_int "recovered receiver gets the in-flight message" 1 !delivered

let test_sender_crash_keeps_egressed_bytes_in_flight () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> incr delivered);
  ignore (Sim.after sim 0.010 (fun () -> Topology.crash topo { g = 0; n = 0 }));
  Sim.run_until_idle sim ();
  check_int "already-egressed message still delivers" 1 !delivered;
  (* But new sends from the crashed node are suppressed at the source. *)
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "post-crash send suppressed" 1 !delivered

(* ---- injected link faults through the fault hook ---- *)

let test_fault_hook_drop () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.set_fault_hook topo
    (Some (fun ~src:_ ~dst:_ ~bulk ~bytes:_ ~now:_ ->
         if bulk then Some Topology.Net_drop else None));
  Topology.send ~bulk:true topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 }
    ~bytes:50_000
    (fun () -> incr delivered);
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:50_000
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "bulk dropped, control through" 1 !delivered;
  check_int "drop counted" 1 (Topology.faults_dropped topo);
  (* A dropped message vanishes at the sender's egress: no bandwidth. *)
  check_int "dropped message consumes no bandwidth" 50_000
    (Topology.wan_bytes_sent topo)

let test_fault_hook_delay () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let plain = ref 0.0 and delayed = ref 0.0 in
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> plain := Sim.now sim);
  Sim.run_until_idle sim ();
  let t0 = Sim.now sim in
  Topology.set_fault_hook topo
    (Some (fun ~src:_ ~dst:_ ~bulk:_ ~bytes:_ ~now:_ -> Some (Topology.Net_delay 0.5)));
  Topology.send topo ~src:{ g = 0; n = 1 } ~dst:{ g = 1; n = 1 } ~bytes:10
    (fun () -> delayed := Sim.now sim -. t0);
  Sim.run_until_idle sim ();
  check_int "delay counted" 1 (Topology.faults_delayed topo);
  (* Identical message, +0.5 s of injected propagation. *)
  check_float "delayed by 0.5 s" (!plain +. 0.5) !delayed

let test_fault_hook_dup () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.set_fault_hook topo
    (Some (fun ~src:_ ~dst:_ ~bulk:_ ~bytes:_ ~now:_ ->
         Some (Topology.Net_dup { copies = 2; spacing_s = 0.001 })));
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "original + 2 copies" 3 !delivered;
  check_int "one duplication event" 1 (Topology.faults_duplicated topo);
  (* Receive-side duplication: the NIC serialized the payload once. *)
  check_int "duplicate copies are free on the wire" 10
    (Topology.wan_bytes_sent topo)

let test_fault_hook_skips_loopback () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.set_fault_hook topo
    (Some (fun ~src:_ ~dst:_ ~bulk:_ ~bytes:_ ~now:_ -> Some Topology.Net_drop));
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 0; n = 0 } ~bytes:10
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "loopback is not a link" 1 !delivered;
  check_int "no drop counted" 0 (Topology.faults_dropped topo)

let test_fault_hook_uninstall () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.set_fault_hook topo
    (Some (fun ~src:_ ~dst:_ ~bulk:_ ~bytes:_ ~now:_ -> Some Topology.Net_drop));
  Topology.set_fault_hook topo None;
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "healed link delivers" 1 !delivered

let test_cpu_speed_factor () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  let done1 = ref 0.0 and done2 = ref 0.0 in
  Cpu.set_speed_factor cpu 2.0;
  Cpu.submit cpu ~seconds:1.0 (fun () -> done1 := Sim.now sim);
  (* Restoring 1.0 must not rewrite the already-queued task's cost. *)
  Cpu.set_speed_factor cpu 1.0;
  Cpu.submit cpu ~seconds:1.0 (fun () -> done2 := Sim.now sim);
  Sim.run_until_idle sim ();
  check_float "stretched task" 2.0 !done1;
  check_float "nominal task queues behind it" 3.0 !done2;
  Alcotest.check_raises "factor below 1 rejected"
    (Invalid_argument "Cpu.set_speed_factor: factor must be finite and >= 1")
    (fun () -> Cpu.set_speed_factor cpu 0.5)

let test_topology_backlog_includes_control () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let a = { Topology.g = 0; n = 0 } in
  (* A control-class (non-bulk) message must register on the uplink
     backlog diagnostic: 250 KB at 20 Mbps = 0.1 s of queue. *)
  Topology.send topo ~src:a ~dst:{ Topology.g = 1; n = 0 } ~bytes:250_000
    (fun () -> ());
  check_float "control traffic counts" 0.1
    (Topology.wan_uplink_backlog_s topo a);
  Sim.run_until_idle sim ()

let test_self_send () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref false in
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 0; n = 0 } ~bytes:999
    (fun () -> delivered := true);
  Sim.run_until_idle sim ();
  check_bool "loopback delivers" true !delivered;
  check_int "loopback costs no bandwidth" 0
    (Topology.lan_bytes_sent topo + Topology.wan_bytes_sent topo)

let test_bandwidth_override () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  (* Degrade one node to 10 Mbps: its 100 KB send takes 0.08 s uplink. *)
  Topology.set_wan_bandwidth topo { g = 0; n = 0 } 10e6;
  let slow = ref 0.0 and fast = ref 0.0 in
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> slow := Sim.now sim);
  Topology.send topo ~src:{ g = 0; n = 1 } ~dst:{ g = 1; n = 1 } ~bytes:100_000
    (fun () -> fast := Sim.now sim);
  Sim.run_until_idle sim ();
  check_bool
    (Printf.sprintf "slow node slower (%.3f vs %.3f)" !slow !fast)
    true (!slow > !fast)

let test_traffic_baseline_reset () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:5_000
    (fun () -> ());
  Sim.run_until_idle sim ();
  check_int "warmup counted" 5_000 (Topology.wan_bytes_sent topo);
  Topology.reset_traffic_baseline topo;
  check_int "baseline zeroed" 0 (Topology.wan_bytes_sent topo);
  Topology.send topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:7_000
    (fun () -> ());
  Sim.run_until_idle sim ();
  check_int "only post-reset traffic" 7_000 (Topology.wan_bytes_sent topo)

(* ------------------------------------------------------------------ *)
(* Shard handles                                                       *)
(* ------------------------------------------------------------------ *)

(* A random scheduling workload, interpretable against any shard count:
   every command arms something at a quantized time (forcing plenty of
   equal-timestamp ties), and a fired command's children re-arm through
   [Sim.after] on the arming shard or [Sim.at] on another shard. Shard
   handles are accounting identities over one queue, so any such
   program must dispatch in exactly the single-shard order. Bursts arm
   many timers across shards and cancel most of them, so the one heap
   compacts garbage that belongs to several shards. *)
type shard_cmd = {
  c_shard : int;  (* arming shard (mod the sim's shard count) *)
  c_time : float;
  c_kind : int;  (* 0 = at; 1 = at then cancel; 2 = at on c_dst; 3 = burst *)
  c_dst : int;  (* target shard (mod shard count) *)
  c_burst : int;  (* kind 3: timers armed round-robin, 9 in 10 cancelled *)
  c_children : (int * float * int) list;
      (* (0 = after | 1 = at on dst | 2 = after then cancel, delta, dst) *)
}

(* Per-shard counts add up to the sim-wide ones. *)
let accounting_ok sim =
  let sum f =
    List.fold_left ( + ) 0
      (List.init (Sim.n_shards sim) (fun i -> f (Sim.shard sim i)))
  in
  sum Sim.pending = Sim.pending_total sim
  && sum Sim.dispatched = Sim.dispatched_total sim

(* Right after any scheduling or cancel, compaction keeps the heap
   within twice the live events plus the compaction floor. *)
let heap_bounded sim = Sim.heap_size sim <= (2 * Sim.pending_total sim) + 64

let run_shard_program ~shards cmds =
  let sim = Sim.create ~shards ~lookahead:0.5 () in
  let shard i = Sim.shard sim (i mod Sim.n_shards sim) in
  let log = ref [] in
  let ok = ref true in
  let check ~bound =
    if not (accounting_ok sim && ((not bound) || heap_bounded sim)) then
      ok := false
  in
  let emit id = log := id :: !log in
  List.iteri
    (fun i c ->
      let fire () =
        emit i;
        List.iteri
          (fun j (kind, delta, dst) ->
            let cid = ((i + 1) * 1000) + j in
            match kind with
            | 0 ->
                ignore (Sim.after (shard c.c_shard) delta (fun () -> emit cid))
            | 1 ->
                ignore
                  (Sim.at (shard dst) (Sim.now sim +. delta) (fun () ->
                       emit cid))
            | _ ->
                Sim.cancel (Sim.after (shard dst) delta (fun () -> emit cid));
                check ~bound:true)
          c.c_children
      in
      (match c.c_kind with
      | 0 -> ignore (Sim.at (shard c.c_shard) c.c_time fire)
      | 1 ->
          let h = Sim.at (shard c.c_shard) c.c_time fire in
          Sim.cancel h
      | 2 -> ignore (Sim.at (shard c.c_dst) c.c_time fire)
      | _ ->
          for k = 0 to c.c_burst - 1 do
            let h =
              Sim.at (shard (c.c_shard + k)) c.c_time (fun () ->
                  emit (((i + 1) * 100_000) + k))
            in
            if k mod 10 <> 0 then Sim.cancel h
          done);
      check ~bound:true)
    cmds;
  while Sim.step sim do
    check ~bound:false
  done;
  (* Every dispatched event logged exactly once. *)
  if List.length !log <> Sim.dispatched_total sim then ok := false;
  (List.rev !log, !ok)

let gen_shard_cmds =
  let open QCheck.Gen in
  let time = map (fun k -> float_of_int k *. 0.125) (int_range 0 32) in
  let delta = map (fun k -> float_of_int (k + 1) *. 0.125) (int_range 0 8) in
  let child = triple (int_range 0 2) delta (int_range 0 3) in
  let cmd =
    int_range 0 3 >>= fun c_shard ->
    time >>= fun c_time ->
    int_range 0 3 >>= fun c_kind ->
    int_range 0 3 >>= fun c_dst ->
    int_range 1 120 >>= fun c_burst ->
    list_size (int_range 0 3) child >>= fun c_children ->
    return { c_shard; c_time; c_kind; c_dst; c_burst; c_children }
  in
  list_size (int_range 1 40) cmd

let prop_shard_merge_equivalence =
  QCheck.Test.make ~count:300
    ~name:"sharded merge driver = single-heap dispatch order"
    (QCheck.make gen_shard_cmds)
    (fun cmds ->
      let reference, ok1 = run_shard_program ~shards:1 cmds in
      List.for_all
        (fun shards ->
          let log, ok = run_shard_program ~shards cmds in
          ok && log = reference)
        [ 2; 3; 4 ]
      && ok1)

let () =
  Alcotest.run "massbft_sim"
    [
      ( "sim",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "FIFO at equal times" `Quick test_fifo_at_equal_times;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
          Alcotest.test_case "pending count" `Quick test_pending;
          Alcotest.test_case "pending excludes fired" `Quick
            test_pending_excludes_fired;
          Alcotest.test_case "100k cancels stay bounded" `Quick
            test_cancel_compaction_bounds_heap;
          Alcotest.test_case "churn keeps dispatch order" `Quick
            test_churn_dispatch_order_unchanged;
        ] );
      ( "shard",
        [
          QCheck_alcotest.to_alcotest prop_shard_merge_equivalence;
        ] );
      ( "nic",
        [
          Alcotest.test_case "serialization time" `Quick test_nic_serialization_time;
          Alcotest.test_case "FIFO queueing" `Quick test_nic_fifo_queueing;
          Alcotest.test_case "idle gap" `Quick test_nic_idle_gap;
          Alcotest.test_case "control bypasses bulk" `Quick test_nic_control_bypasses_bulk;
          Alcotest.test_case "classes independent" `Quick test_nic_bulk_classes_independent;
          Alcotest.test_case "per-class counters" `Quick test_nic_class_counters;
          Alcotest.test_case "backlog covers both classes" `Quick
            test_nic_backlog_covers_both_classes;
          Alcotest.test_case "zero bytes" `Quick test_nic_zero_bytes;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "parallel cores" `Quick test_cpu_parallel_cores;
          Alcotest.test_case "single core FIFO" `Quick test_cpu_single_core_fifo;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
          Alcotest.test_case "utilization empty window" `Quick
            test_cpu_utilization_empty_window;
          Alcotest.test_case "utilization mid-task window" `Quick
            test_cpu_utilization_mid_task_window;
          Alcotest.test_case "utilization multi-core partial" `Quick
            test_cpu_utilization_multi_core_partial;
          Alcotest.test_case "queue depth" `Quick test_cpu_queue_depth;
        ] );
      ( "topology",
        [
          Alcotest.test_case "shape" `Quick test_topology_shape;
          Alcotest.test_case "WAN latency+bandwidth" `Quick test_wan_latency_and_bandwidth;
          Alcotest.test_case "LAN fast path" `Quick test_lan_fast_path;
          Alcotest.test_case "leader uplink bottleneck" `Quick test_leader_uplink_bottleneck;
          Alcotest.test_case "crash drops messages" `Quick test_crash_drops_messages;
          Alcotest.test_case "backlog includes control class" `Quick
            test_topology_backlog_includes_control;
          Alcotest.test_case "crash mid-flight" `Quick test_crash_mid_flight;
          Alcotest.test_case "crash group" `Quick test_crash_group;
          Alcotest.test_case "recover before arrival delivers" `Quick
            test_crash_then_recover_before_arrival_delivers;
          Alcotest.test_case "sender crash keeps egressed bytes" `Quick
            test_sender_crash_keeps_egressed_bytes_in_flight;
          Alcotest.test_case "fault hook drop" `Quick test_fault_hook_drop;
          Alcotest.test_case "fault hook delay" `Quick test_fault_hook_delay;
          Alcotest.test_case "fault hook dup" `Quick test_fault_hook_dup;
          Alcotest.test_case "fault hook skips loopback" `Quick
            test_fault_hook_skips_loopback;
          Alcotest.test_case "fault hook uninstall" `Quick
            test_fault_hook_uninstall;
          Alcotest.test_case "cpu speed factor" `Quick test_cpu_speed_factor;
          Alcotest.test_case "self send" `Quick test_self_send;
          Alcotest.test_case "bandwidth override" `Quick test_bandwidth_override;
          Alcotest.test_case "traffic baseline reset" `Quick test_traffic_baseline_reset;
        ] );
    ]
