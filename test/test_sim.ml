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
  Sim.at sim 3.0 (fun () -> log := 3 :: !log);
  Sim.at sim 1.0 (fun () -> log := 1 :: !log);
  Sim.at sim 2.0 (fun () -> log := 2 :: !log);
  Sim.run_until_idle sim ();
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log)

let test_fifo_at_equal_times () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Sim.at sim 1.0 (fun () -> log := i :: !log)
  done;
  Sim.run_until_idle sim ();
  Alcotest.(check (list int))
    "insertion order at equal time"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref 0.0 in
  Sim.after sim 2.5 (fun () -> seen := Sim.now sim);
  Sim.run_until_idle sim ();
  check_float "clock at event time" 2.5 !seen;
  check_float "clock stays" 2.5 (Sim.now sim)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.after sim 1.0 (fun () ->
      log := "a" :: !log;
      Sim.after sim 1.0 (fun () -> log := "c" :: !log));
  Sim.after sim 1.5 (fun () -> log := "b" :: !log);
  Sim.run_until_idle sim ();
  Alcotest.(check (list string)) "nested order" [ "a"; "b"; "c" ] (List.rev !log)

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 5 do
    Sim.at sim (float_of_int i) (fun () -> incr count)
  done;
  Sim.run sim ~until:3.0;
  check_int "only events <= until" 3 !count;
  check_float "clock moved to until" 3.0 (Sim.now sim);
  Sim.run sim ~until:10.0;
  check_int "remaining events" 5 !count

let test_past_scheduling_rejected () =
  let sim = Sim.create () in
  Sim.after sim 5.0 (fun () -> ());
  Sim.run sim ~until:6.0;
  check_bool "at in the past raises" true
    (try
       Sim.at sim 1.0 (fun () -> ());
       false
     with Invalid_argument _ -> true);
  check_bool "negative delay raises" true
    (try
       Sim.after sim (-1.0) (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_nan_time_rejected () =
  let sim = Sim.create () in
  check_bool "at NaN raises" true
    (try
       Sim.at sim Float.nan ignore;
       false
     with Invalid_argument _ -> true);
  check_bool "after NaN raises" true
    (try
       Sim.after sim Float.nan ignore;
       false
     with Invalid_argument _ -> true);
  check_int "nothing scheduled" 0 (Sim.pending sim);
  Sim.at sim 1.0 ignore;
  Sim.run_until_idle sim ();
  check_float "clock unharmed" 1.0 (Sim.now sim)

let test_pending () =
  let sim = Sim.create ~shards:2 () in
  Sim.after sim 1.0 (fun () -> ());
  Sim.after (Sim.shard sim 1) 2.0 (fun () -> ());
  check_int "one pending per shard" 1 (Sim.pending sim);
  check_int "two pending in all" 2 (Sim.pending_total sim);
  Sim.run_until_idle sim ();
  check_int "drained" 0 (Sim.pending_total sim)

let test_pending_excludes_fired () =
  let sim = Sim.create () in
  Sim.after sim 1.0 (fun () -> ());
  Sim.after sim 2.0 (fun () -> ());
  Sim.run sim ~until:1.5;
  check_int "fired event no longer pending" 1 (Sim.pending sim)

let test_slots_recycled () =
  (* Fill the heap's first capacity, fire most of it with a partial
     run, then refill past the old capacity: every fired event's slot
     must come back to the free stack, or the refill runs out of
     slots. *)
  let sim = Sim.create () in
  let fired = ref [] in
  let arm i time = Sim.at sim time (fun () -> fired := i :: !fired) in
  for i = 0 to 255 do
    arm i (float_of_int (i mod 8))
  done;
  Sim.run sim ~until:6.0;
  check_int "partial run left the last time step" 32 (Sim.pending sim);
  for i = 256 to 999 do
    arm i (6.0 +. float_of_int (i mod 8))
  done;
  Sim.run_until_idle sim ();
  let time i = if i < 256 then i mod 8 else 6 + (i mod 8) in
  let expected = List.stable_sort (fun a b -> compare (time a) (time b)) (List.init 1000 Fun.id) in
  Alcotest.(check (list int)) "both waves fire in (time, seq) order" expected
    (List.rev !fired)

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

(* The binary heap inside [Sim], through its interface: [at] pushes,
   [step] pops and [run ~until] peeks. [fire_order] schedules [times]
   and returns the indices in the order they fire. *)
let fire_order times =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iteri (fun i time -> Sim.at sim time (fun () -> fired := i :: !fired)) times;
  Sim.run_until_idle sim ();
  List.rev !fired

(* The (time, seq) order the indices must fire in. *)
let sorted_indices times =
  List.mapi (fun i time -> (time, i)) times
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd

let test_heap_drain_order () =
  (* 1000 events, ten per timestamp, scheduled out of order: the heap
     grows past its first allocation and still pops (time, seq). *)
  let times = List.init 1000 (fun i -> float_of_int (i * 7919 mod 1000 / 10)) in
  Alcotest.(check (list int)) "sorted, FIFO on ties" (sorted_indices times)
    (fire_order times)

let test_heap_empty () =
  let sim = Sim.create () in
  check_bool "step on empty" false (Sim.step sim);
  Sim.run sim ~until:1.0;
  check_float "run on empty advances the clock" 1.0 (Sim.now sim)

let test_heap_peek_stable () =
  let sim = Sim.create () in
  List.iter (fun t -> Sim.at sim t ignore) [ 4.; 2.; 6. ];
  Sim.run sim ~until:1.0;
  check_int "head beyond until stays" 3 (Sim.pending sim);
  Sim.run sim ~until:2.0;
  check_int "head fires once reached" 2 (Sim.pending sim)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list in sorted order"
    QCheck.(list (map float_of_int small_int))
    (fun times -> fire_order times = sorted_indices times)

(* [Some d] schedules at [now + d], [None] steps; the model is the
   sorted list of pending (time, seq) keys. *)
let prop_heap_interleaved =
  QCheck.Test.make ~name:"interleaved at/step pop in order"
    QCheck.(list (option small_int))
    (fun ops ->
      let sim = Sim.create () in
      let model = ref [] and seq = ref 0 and last = ref (-1) in
      List.for_all
        (function
          | Some d ->
              let key = (Sim.now sim +. float_of_int d, !seq) in
              incr seq;
              Sim.at sim (fst key) (fun () -> last := snd key);
              model := List.merge compare !model [ key ];
              true
          | None -> (
              match !model with
              | [] -> not (Sim.step sim)
              | (_, s) :: rest ->
                  model := rest;
                  Sim.step sim && !last = s))
        ops)

(* A random at/after/run program against a model that keeps every
   unfired (time, seq) key and fires them in sorted order. Times are
   quarter-second multiples over a short span, so exact-time ties are
   common, and bursts arm up to 150 timers at one time. *)
type sched_op =
  | Op_at of int  (* at now + k/4 *)
  | Op_after of int  (* after k/4 *)
  | Op_burst of int * int  (* k timers at now + d/4 *)
  | Op_run of int  (* run until now + k/4 *)

let run_sched_program ops =
  let sim = Sim.create ~shards:2 () in
  (* Unfired (time, id) keys; ids follow scheduling order, as seqs do. *)
  let pending = ref [] and next_id = ref 0 in
  let fired = ref [] and expected = ref [] and ok = ref true in
  let arm ~via_after k =
    let id = !next_id in
    incr next_id;
    let delta = float_of_int k /. 4.0 in
    let time = Sim.now sim +. delta in
    let emit () = fired := id :: !fired in
    let shard = Sim.shard sim (id mod 2) in
    if via_after then Sim.after shard delta emit else Sim.at shard time emit;
    pending := (time, id) :: !pending
  in
  (* The model fires its pending timers up to [until] in (time, id) order. *)
  let model_run until =
    let due, rest = List.partition (fun (time, _) -> time <= until) !pending in
    pending := rest;
    List.iter (fun (_, id) -> expected := id :: !expected) (List.sort compare due)
  in
  List.iter
    (fun op ->
      (match op with
      | Op_at k -> arm ~via_after:false k
      | Op_after k -> arm ~via_after:true k
      | Op_burst (k, d) ->
          for _ = 1 to k do
            arm ~via_after:false d
          done
      | Op_run k ->
          let until = Sim.now sim +. (float_of_int k /. 4.0) in
          model_run until;
          Sim.run sim ~until);
      if Sim.pending_total sim <> List.length !pending then ok := false)
    ops;
  model_run infinity;
  Sim.run_until_idle sim ();
  !ok && !fired = !expected

let prop_dispatch_order =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun k -> Op_at k) (int_range 0 12));
        (3, map (fun k -> Op_after k) (int_range 0 12));
        (1, map2 (fun k d -> Op_burst (k, d)) (int_range 1 150) (int_range 0 12));
        (2, map (fun k -> Op_run k) (int_range 0 8));
      ]
  in
  QCheck.Test.make ~count:300 ~name:"dispatch order = sort by (time, seq)"
    (QCheck.make (list_size (int_range 1 80) op))
    run_sched_program

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
  Sim.after sim 1.0 (fun () ->
      Nic.transmit nic ~bytes:125_000 (fun () -> t2 := Sim.now sim));
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
  Sim.at sim 1.0 (fun () ->
      check_float "mid-task, capped" 1.0 (Cpu.utilization cpu ~since:0.0));
  Sim.run_until_idle sim ();
  check_float "exactly busy over its own span" 1.0
    (Cpu.utilization cpu ~since:0.0)

let test_cpu_utilization_multi_core_partial () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:4 in
  Cpu.submit cpu ~seconds:1.0 (fun () -> ());
  Cpu.submit cpu ~seconds:1.0 (fun () -> ());
  Sim.at sim 2.0 (fun () -> ());
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
  Sim.at sim 1.5 (fun () -> check_int "one completed" 1 (Cpu.queue_depth cpu));
  Sim.run_until_idle sim ();
  check_int "drained" 0 (Cpu.queue_depth cpu);
  (* A 4-core parallel charge behind single tasks of 0.5, 1.5 and 2.5 s:
     its 1 s slices finish at 1.0, 1.5, 2.0 and 2.5, and the depth steps
     down at each slice's own finish, as on a twin CPU given the slices
     as single submits. *)
  let sim = Sim.create () in
  let par = Cpu.create sim ~cores:4 and twin = Cpu.create sim ~cores:4 in
  List.iter
    (fun seconds -> List.iter (fun c -> Cpu.submit c ~seconds ignore) [ par; twin ])
    [ 0.5; 1.5; 2.5 ];
  Cpu.submit_parallel par ~slices:4 ~seconds:4.0 ignore;
  for _ = 1 to 4 do
    Cpu.submit twin ~seconds:1.0 ignore
  done;
  let depths = ref [] in
  List.iter
    (fun at ->
      Sim.at sim at (fun () ->
          depths := (Cpu.queue_depth par, Cpu.queue_depth twin) :: !depths))
    [ 0.25; 0.75; 1.25; 1.75; 2.25; 2.75 ];
  Sim.run_until_idle sim ();
  Alcotest.(check (list (pair int int)))
    "slice by slice"
    (List.map (fun d -> (d, d)) [ 7; 6; 5; 3; 2; 0 ])
    (List.rev !depths)

let test_cpu_submit_parallel () =
  (* 1 s slices behind a 0.5 s task on 2 cores run over [0, 1], [0.5,
     1.5] and [1, 2]: one continuation, at 2.0, and the core-time of
     three single submits. Equal slices on idle cores share one finish
     and leave the depth together, with the continuation. *)
  let sim = Sim.create () in
  let par = Cpu.create sim ~cores:2 and twin = Cpu.create sim ~cores:2 in
  List.iter (fun c -> Cpu.submit c ~seconds:0.5 ignore) [ par; twin ];
  let fired = ref [] in
  Cpu.submit_parallel par ~slices:3 ~seconds:3.0 (fun () ->
      fired := Sim.now sim :: !fired);
  for _ = 1 to 3 do
    Cpu.submit twin ~seconds:1.0 ignore
  done;
  Sim.run_until_idle sim ();
  Alcotest.(check (list (float 1e-9))) "one continuation" [ 2.0 ] !fired;
  check_float "busy seconds" (Cpu.busy_seconds twin) (Cpu.busy_seconds par);
  check_float "utilization" (Cpu.utilization twin ~since:0.0)
    (Cpu.utilization par ~since:0.0);
  Cpu.submit_parallel par ~slices:2 ~seconds:1.0 ignore;
  check_int "two slices queued" 2 (Cpu.queue_depth par);
  Sim.run_until_idle sim ();
  check_int "equal finishes drained together" 0 (Cpu.queue_depth par)

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

let test_bad_delays_rejected () =
  let rejects what spec =
    check_bool what true
      (match Topology.create (Sim.create ()) spec with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "NaN lan_rtt" { (spec ()) with lan_rtt = Float.nan };
  rejects "negative lan_rtt" { (spec ()) with lan_rtt = -0.001 };
  let groups = [| 2; 2; 2 |] in
  (* One bad pair among good ones fails at create, not at its first send. *)
  let bad_pair v = fun g h -> if (g, h) = (2, 1) then v else 0.03 in
  rejects "negative WAN rtt" { (spec ~groups ()) with rtt = bad_pair (-0.01) };
  rejects "NaN WAN rtt" { (spec ~groups ()) with rtt = bad_pair Float.nan };
  ignore (Topology.create (Sim.create ()) { (spec ~groups ()) with rtt = bad_pair 0.0 })

let test_wan_latency_and_bandwidth () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let arrived = ref 0.0 in
  (* 100 KB over 20 Mbps uplink + 15 ms propagation + 20 Mbps downlink:
     0.04 + 0.015 + 0.04 = 0.095 s. *)
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> arrived := Sim.now sim);
  Sim.run_until_idle sim ();
  check_float "store-and-forward WAN" 0.095 !arrived;
  check_int "wan bytes counted" 100_000 (Topology.wan_bytes_sent topo)

let test_lan_fast_path () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let arrived = ref 0.0 in
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 0; n = 1 } ~bytes:100_000
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
    Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n } ~bytes:250_000
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
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> incr delivered);
  (* Crash of the source also suppresses sends. *)
  Topology.crash topo { g = 0; n = 1 };
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 1 } ~dst:{ g = 1; n = 1 } ~bytes:10
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "both dropped" 0 !delivered;
  Topology.recover topo { g = 1; n = 0 };
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "delivered after recovery" 1 !delivered

let test_crash_mid_flight () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> incr delivered);
  (* Receiver dies while the message is in flight. *)
  Sim.after sim 0.01 (fun () -> Topology.crash topo { g = 1; n = 0 });
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
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> incr delivered);
  Sim.after sim 0.010 (fun () -> Topology.crash topo { g = 1; n = 0 });
  Sim.after sim 0.050 (fun () -> Topology.recover topo { g = 1; n = 0 });
  Sim.run_until_idle sim ();
  check_int "recovered receiver gets the in-flight message" 1 !delivered

let test_sender_crash_keeps_egressed_bytes_in_flight () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> incr delivered);
  Sim.after sim 0.010 (fun () -> Topology.crash topo { g = 0; n = 0 });
  Sim.run_until_idle sim ();
  check_int "already-egressed message still delivers" 1 !delivered;
  (* But new sends from the crashed node are suppressed at the source. *)
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
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
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:50_000
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
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> plain := Sim.now sim);
  Sim.run_until_idle sim ();
  let t0 = Sim.now sim in
  Topology.set_fault_hook topo
    (Some (fun ~src:_ ~dst:_ ~bulk:_ ~bytes:_ ~now:_ -> Some (Topology.Net_delay 0.5)));
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 1 } ~dst:{ g = 1; n = 1 } ~bytes:10
    (fun () -> delayed := Sim.now sim -. t0);
  Sim.run_until_idle sim ();
  check_int "delay counted" 1 (Topology.faults_delayed topo);
  (* Identical message, +0.5 s of injected propagation. *)
  check_float "delayed by 0.5 s" (!plain +. 0.5) !delayed

let test_fault_hook_dup () =
  let sim = Sim.create ~shards:2 () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.set_fault_hook topo
    (Some (fun ~src:_ ~dst:_ ~bulk:_ ~bytes:_ ~now:_ ->
         Some (Topology.Net_dup { copies = 2; spacing_s = 0.001 })));
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
    (fun () -> incr delivered);
  Sim.run_until_idle sim ();
  check_int "original + 2 copies" 3 !delivered;
  check_int "one duplication event" 1 (Topology.faults_duplicated topo);
  (* Receive-side duplication: the NIC serialized the payload once. *)
  check_int "duplicate copies are free on the wire" 10
    (Topology.wan_bytes_sent topo);
  (* Every event past the sender's uplink belongs to group 1: the
     arrival, the downlink completion and both copies. *)
  check_int "counted on the receiver's shard" 4 (Sim.dispatched (Sim.shard sim 1));
  check_int "nothing on the sender's shard" 0 (Sim.dispatched sim)

let test_fault_hook_skips_loopback () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref 0 in
  Topology.set_fault_hook topo
    (Some (fun ~src:_ ~dst:_ ~bulk:_ ~bytes:_ ~now:_ -> Some Topology.Net_drop));
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 0; n = 0 } ~bytes:10
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
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:10
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
  Topology.send ~bulk:false topo ~src:a ~dst:{ Topology.g = 1; n = 0 } ~bytes:250_000
    (fun () -> ());
  check_float "control traffic counts" 0.1
    (Topology.wan_uplink_backlog_s topo a);
  Sim.run_until_idle sim ()

let test_self_send () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  let delivered = ref false in
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 0; n = 0 } ~bytes:999
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
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:100_000
    (fun () -> slow := Sim.now sim);
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 1 } ~dst:{ g = 1; n = 1 } ~bytes:100_000
    (fun () -> fast := Sim.now sim);
  Sim.run_until_idle sim ();
  check_bool
    (Printf.sprintf "slow node slower (%.3f vs %.3f)" !slow !fast)
    true (!slow > !fast)

let test_traffic_baseline_reset () =
  let sim = Sim.create () in
  let topo = Topology.create sim (spec ()) in
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:5_000
    (fun () -> ());
  Sim.run_until_idle sim ();
  check_int "warmup counted" 5_000 (Topology.wan_bytes_sent topo);
  Topology.reset_traffic_baseline topo;
  check_int "baseline zeroed" 0 (Topology.wan_bytes_sent topo);
  Topology.send ~bulk:false topo ~src:{ g = 0; n = 0 } ~dst:{ g = 1; n = 0 } ~bytes:7_000
    (fun () -> ());
  Sim.run_until_idle sim ();
  check_int "only post-reset traffic" 7_000 (Topology.wan_bytes_sent topo)

let spec3 =
  { (spec ~groups:[| 2; 2; 2 |] ()) with
    rtt = (fun g h -> 0.02 +. (0.01 *. float_of_int (g + h))) }

(* A deterministic duplicating hook keyed on the message size. *)
let dup_hook ~src:_ ~dst:_ ~bulk:_ ~bytes ~now:_ =
  if bytes mod 3 > 0 then None
  else Some (Topology.Net_dup { copies = 1 + (bytes mod 2); spacing_s = 0.0007 })

(* The store-and-forward send as three scheduled hops (uplink
   completion, propagation arrival, downlink completion), built from
   [Nic.transmit] and [Sim.at] over another topology's NICs and
   liveness: the model [Topology.send]'s fused uplink must agree with. *)
let three_hop_send topo ~bulk ~(src : Topology.addr) ~(dst : Topology.addr)
    ~bytes k =
  let sim = Topology.sim topo in
  let deliver () = if Topology.alive topo dst then k () in
  let copies = if bytes mod 3 > 0 then 0 else 1 + (bytes mod 2) in
  let wan = src.g <> dst.g in
  let one_way = (if wan then spec3.rtt src.g dst.g else spec3.lan_rtt) /. 2.0 in
  if not (Topology.alive topo src) then ()
  else if Topology.addr_equal src dst then Sim.after sim 1e-6 deliver
  else
    Nic.transmit ~bulk
      (Topology.nic topo src (if wan then Wan_up else Lan_up))
      ~bytes
      (fun () ->
        Sim.at sim (Sim.now sim +. one_way) (fun () ->
            Nic.transmit ~bulk
              (Topology.nic topo dst (if wan then Wan_down else Lan_down))
              ~bytes
              (fun () ->
                deliver ();
                for i = 1 to copies do
                  Sim.after sim (0.0007 *. float_of_int i) deliver
                done)))

(* Runs timed sends plus one receiver crash and recovery through
   [Topology.send] ([fused]) or the three-hop model, and returns the
   deliveries as (time, ids delivered at that time, sorted): within one
   timestamp the two may differ, as the fused arrival draws its seq at
   send time. *)
let run_sends ~fused (sends, (crash_at, victim, down_for)) =
  let sim = Sim.create () in
  let topo = Topology.create sim spec3 in
  let send =
    if fused then begin
      Topology.set_fault_hook topo (Some dup_hook);
      fun ~bulk -> Topology.send ~bulk topo
    end
    else three_hop_send topo
  in
  let log = ref [] in
  List.iteri
    (fun id (at, src, dst, bytes, bulk) ->
      Sim.at sim at (fun () ->
          send ~bulk ~src ~dst ~bytes (fun () ->
              log := (Sim.now sim, id) :: !log)))
    sends;
  Sim.at sim crash_at (fun () -> Topology.crash topo victim);
  Sim.at sim (crash_at +. down_for) (fun () -> Topology.recover topo victim);
  Sim.run_until_idle sim ();
  List.fold_left
    (fun acc (time, id) ->
      match acc with
      | (t, ids) :: rest when t = time -> (t, id :: ids) :: rest
      | _ -> (time, [ id ]) :: acc)
    [] !log
  |> List.map (fun (t, ids) -> (t, List.sort compare ids))

let prop_fused_send =
  let open QCheck.Gen in
  let addr = map2 (fun g n -> { Topology.g; n }) (int_bound 2) (int_bound 1) in
  let send =
    map
      (fun (at, src, dst, (bytes, bulk)) -> (at, src, dst, bytes, bulk))
      (quad (float_bound_exclusive 0.2) addr addr
         (pair (int_range 1 100_000) bool))
  in
  QCheck.Test.make ~count:300 ~name:"fused uplink = three-hop send"
    (QCheck.make
       (pair (list_size (int_range 1 60) send)
          (triple (float_bound_exclusive 0.25) addr (float_bound_exclusive 0.05))))
    (fun program -> run_sends ~fused:true program = run_sends ~fused:false program)

(* The store-and-forward send as two scheduled hops: the uplink is
   reserved at send time ([Nic.reserve]) and the arrival scheduled at
   its finish plus the one-way delay ([Sim.at]); the arrival serializes
   through the downlink with [Nic.transmit], whose completion delivers.
   Fault verdicts apply as documented on [Topology.send_fault]. Runs
   over another topology's NICs and liveness; [Topology.send] must
   reproduce its every delivery time and order. *)
let two_hop_send topo ~hook ~bulk ~(src : Topology.addr) ~(dst : Topology.addr)
    ~bytes k =
  let sim = Topology.sim topo in
  let dst_sim = Topology.shard_of topo dst.g in
  let deliver () = if Topology.alive topo dst then k () in
  if not (Topology.alive topo src) then ()
  else if Topology.addr_equal src dst then
    Sim.at dst_sim (Sim.now sim +. 1e-6) deliver
  else
    let verdict =
      match hook with
      | None -> None
      | Some hook -> hook ~src ~dst ~bulk ~bytes ~now:(Sim.now sim)
    in
    let extra, copies, spacing =
      match verdict with
      | Some (Topology.Net_delay d) when d > 0.0 -> (d, 0, 0.0)
      | Some (Topology.Net_dup { copies; spacing_s }) when copies > 0 ->
          (0.0, copies, Float.max spacing_s 1e-6)
      | _ -> (0.0, 0, 0.0)
    in
    if verdict <> Some Topology.Net_drop then begin
      let wan = src.g <> dst.g in
      let rtt = if wan then spec3.rtt src.g dst.g else spec3.lan_rtt in
      let one_way = (rtt /. 2.0) +. extra in
      let finish =
        Nic.reserve ~bulk (Topology.nic topo src (if wan then Wan_up else Lan_up)) ~bytes
      in
      Sim.at dst_sim (finish +. one_way) (fun () ->
          Nic.transmit ~bulk
            (Topology.nic topo dst (if wan then Wan_down else Lan_down))
            ~bytes
            (fun () ->
              deliver ();
              for i = 1 to copies do
                Sim.after dst_sim (spacing *. float_of_int i) deliver
              done))
    end

(* Deterministic hooks keyed on the message, one per verdict kind. *)
let hooks : (string * Topology.fault_hook option) list =
  [
    ("no hook", None);
    ("hook -> None", Some (fun ~src:_ ~dst:_ ~bulk:_ ~bytes:_ ~now:_ -> None));
    ( "hook -> Net_delay",
      Some
        (fun ~src:_ ~dst:_ ~bulk:_ ~bytes ~now:_ ->
          if bytes mod 2 = 0 then Some (Topology.Net_delay (float_of_int (bytes mod 7) *. 0.003))
          else None) );
    ("hook -> Net_dup", Some dup_hook);
  ]

(* Every delivery as (time, send id), in delivery order, through
   [Topology.send] or the two-hop model, on a three-shard sim. *)
let run_send_stream ~model ~hook (sends, (crash_at, victim, down_for)) =
  let sim = Sim.create ~shards:3 () in
  let topo = Topology.create sim spec3 in
  let send =
    if model then two_hop_send topo ~hook
    else begin
      Topology.set_fault_hook topo hook;
      fun ~bulk -> Topology.send ~bulk topo
    end
  in
  let log = ref [] in
  List.iteri
    (fun id (at, src, dst, bytes, bulk) ->
      Sim.at sim at (fun () ->
          send ~bulk ~src ~dst ~bytes (fun () -> log := (Sim.now sim, id) :: !log)))
    sends;
  Sim.at sim crash_at (fun () -> Topology.crash topo victim);
  Sim.at sim (crash_at +. down_for) (fun () -> Topology.recover topo victim);
  Sim.run_until_idle sim ();
  List.rev !log

let prop_send_path =
  let open QCheck.Gen in
  let addr = map2 (fun g n -> { Topology.g; n }) (int_bound 2) (int_bound 1) in
  (* Half the sends start on a 5 ms grid, so sends, arrivals and
     deliveries often share a timestamp exactly. *)
  let at =
    oneof [ float_bound_exclusive 0.2; map (fun k -> float_of_int k *. 0.005) (int_bound 40) ]
  in
  let send =
    map
      (fun (at, src, dst, (bytes, bulk)) -> (at, src, dst, bytes, bulk))
      (quad at addr addr (pair (int_range 1 100_000) bool))
  in
  QCheck.Test.make ~count:200 ~name:"send path = two-hop model, with and without fault hooks"
    (QCheck.make
       (pair (list_size (int_range 1 60) send)
          (triple (float_bound_exclusive 0.25) addr (float_bound_exclusive 0.05))))
    (fun stream ->
      List.for_all
        (fun (_, hook) ->
          run_send_stream ~model:false ~hook stream = run_send_stream ~model:true ~hook stream)
        hooks)

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per fault-free remote message, from [Topology.send]
   through the arrival to delivery (the continuation is allocated once,
   outside the count), and per [Sim.at] plus its dispatch. The counts
   are exact and deterministic for one compiler, so a budget is the
   value measured on OCaml 5.1 (native, no flambda, as dune's default
   profile builds it) plus 2%: one more word per message breaks it.
   Other compilers allocate differently; there the figures are printed,
   not enforced. *)
let budget_enforced =
  Sys.backend_type = Sys.Native
  && String.length Sys.ocaml_version >= 4
  && String.sub Sys.ocaml_version 0 4 = "5.1."

let check_budget what ~measured ~budget =
  Printf.printf "%s: %.3f words (budget %.3f%s)\n" what measured budget
    (if budget_enforced then "" else ", not enforced on OCaml " ^ Sys.ocaml_version);
  if budget_enforced then
    check_bool (Printf.sprintf "%s: %.2f words <= %.2f" what measured budget) true
      (measured <= budget)

(* Runs [round] 10 times to warm up (the heap reaches its first
   capacity), then returns the words per call over 1000 more. *)
let words_per_round round =
  for _ = 1 to 10 do round () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do round () done;
  (Gc.minor_words () -. w0) /. 1000.0

let delivered () = ()

let message_words ~wan ~bulk =
  let sim = Sim.create ~shards:2 () in
  let topo = Topology.create sim (spec ()) in
  let src = { Topology.g = 0; n = 0 } and dst = { Topology.g = (if wan then 1 else 0); n = 1 } in
  words_per_round (fun () ->
      Topology.send ~bulk topo ~src ~dst ~bytes:1_000 delivered;
      Sim.run_until_idle sim ())

let test_budget_message () =
  List.iter
    (fun (wan, bulk) ->
      check_budget
        (Printf.sprintf "%s %s message" (if wan then "WAN" else "LAN")
           (if bulk then "bulk" else "ctrl"))
        ~measured:(message_words ~wan ~bulk) ~budget:(27.0 *. 1.02))
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_budget_event () =
  let sim = Sim.create () in
  check_budget "Sim.at + one dispatch"
    ~measured:
      (words_per_round (fun () ->
           Sim.at sim (Sim.now sim +. 1.0) delivered;
           ignore (Sim.step sim)))
    ~budget:(4.0 *. 1.02)

(* ------------------------------------------------------------------ *)
(* Shard handles                                                       *)
(* ------------------------------------------------------------------ *)

(* A random scheduling workload, interpretable against any shard count:
   every command arms something at a quantized time (forcing plenty of
   equal-timestamp ties), and a fired command's children re-arm through
   [Sim.after] on the arming shard or [Sim.at] on another shard. Shard
   handles are accounting identities over one queue, so any such
   program must dispatch in exactly the single-shard order. Bursts arm
   many timers round-robin across shards. *)
type shard_cmd = {
  c_shard : int;  (* arming shard (mod the sim's shard count) *)
  c_time : float;
  c_kind : int;  (* 0 = at; 1 = at on c_dst; 2 = burst *)
  c_dst : int;  (* target shard (mod shard count) *)
  c_burst : int;  (* kind 2: timers armed round-robin *)
  c_children : (int * float * int) list;  (* (0 = after | 1 = at on dst, delta, dst) *)
}

(* Per-shard counts add up to the sim-wide ones. *)
let accounting_ok sim =
  let sum f =
    List.fold_left ( + ) 0
      (List.init (Sim.n_shards sim) (fun i -> f (Sim.shard sim i)))
  in
  sum Sim.pending = Sim.pending_total sim
  && sum Sim.dispatched = Sim.dispatched_total sim

let run_shard_program ~shards cmds =
  let sim = Sim.create ~shards ~lookahead:0.5 () in
  let shard i = Sim.shard sim (i mod Sim.n_shards sim) in
  let log = ref [] in
  let ok = ref true in
  let check () = if not (accounting_ok sim) then ok := false in
  let emit id = log := id :: !log in
  List.iteri
    (fun i c ->
      let fire () =
        emit i;
        List.iteri
          (fun j (kind, delta, dst) ->
            let cid = ((i + 1) * 1000) + j in
            if kind = 0 then Sim.after (shard c.c_shard) delta (fun () -> emit cid)
            else Sim.at (shard dst) (Sim.now sim +. delta) (fun () -> emit cid))
          c.c_children
      in
      (match c.c_kind with
      | 0 -> Sim.at (shard c.c_shard) c.c_time fire
      | 1 -> Sim.at (shard c.c_dst) c.c_time fire
      | _ ->
          for k = 0 to c.c_burst - 1 do
            Sim.at (shard (c.c_shard + k)) c.c_time (fun () ->
                emit (((i + 1) * 100_000) + k))
          done);
      check ())
    cmds;
  while Sim.step sim do
    check ()
  done;
  (* Every dispatched event logged exactly once. *)
  if List.length !log <> Sim.dispatched_total sim then ok := false;
  (List.rev !log, !ok)

let gen_shard_cmds =
  let open QCheck.Gen in
  let time = map (fun k -> float_of_int k *. 0.125) (int_range 0 32) in
  let delta = map (fun k -> float_of_int (k + 1) *. 0.125) (int_range 0 8) in
  let child = triple (int_range 0 1) delta (int_range 0 3) in
  let cmd =
    int_range 0 3 >>= fun c_shard ->
    time >>= fun c_time ->
    int_range 0 2 >>= fun c_kind ->
    int_range 0 3 >>= fun c_dst ->
    int_range 1 12 >>= fun c_burst ->
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

(* ------------------------------------------------------------------ *)
(* Timed-line core of the scenario languages                           *)
(* ------------------------------------------------------------------ *)

let test_timed_line () =
  let module T = Massbft_sim.Timed_line in
  let check_string = Alcotest.(check string) in
  (* A toy item grammar: "ping gN [every K]". *)
  let item at = function
    | "ping" :: args ->
        let g, kw = T.args "ping" T.gid [ "every" ] args in
        (at, g, kw "every")
    | tok :: _ -> T.fail "unknown item %S" tok
    | [] -> T.fail "empty item"
  in
  let doc = "# header\n\n  @1.5 ping g2 every 3\n   \n@0 ping g0 every 1\n" in
  check_bool "comment and blank lines skipped" true
    (T.read item doc = [ (1.5, 2, "3"); (0.0, 0, "1") ]);
  let error text =
    match T.read item text with
    | _ -> "accepted"
    | exception T.Parse_error m -> m
  in
  check_string "a line without @TIME names its line"
    {|line 3: bad event line "ping g0" (expected "@TIME ITEM ...")|}
    (error "# c\n@1 ping g0 every 1\nping g0\n");
  check_string "bad time" {|line 1: bad time "x"|} (error "@x ping g0 every 1");
  check_string "bad group" {|line 1: bad group "n0" (expected gN)|}
    (error "@1 ping n0 every 1");
  check_string "typo'd keyword" {|line 2: ping: unexpected token "evry"|}
    (error "\n@1 ping g0 evry 1");
  check_string "missing keyword" {|line 1: ping: missing "every"|}
    (error "@1 ping g0");
  check_string "missing argument" {|line 1: ping: missing argument|}
    (error "@1 ping");
  check_string "duplicate keyword" {|line 1: ping: duplicate "every"|}
    (error "@1 ping g0 every 1 every 2");
  check_bool "gG/nN" true (T.addr "g3/n12" = { Topology.g = 3; n = 12 });
  List.iter
    (fun bad ->
      check_bool ("bad address " ^ bad) true
        (match T.addr bad with _ -> false | exception T.Parse_error _ -> true))
    [ "g3"; "n1/g0"; "g/n1"; "g1/n"; "g1/x2" ];
  List.iter
    (fun at ->
      check_bool (Printf.sprintf "time %g rejected" at) true
        (T.check_time "ping" at = Error "ping: negative time"))
    [ -1.0; Float.nan; Float.infinity ];
  check_bool "time 0 accepted" true (T.check_time "ping" 0.0 = Ok ());
  check_bool "node out of range" true
    (T.check_addr "ping" ~group_sizes:[| 4; 4 |] { Topology.g = 1; n = 4 }
    = Error "ping: node g1/n4 out of range")

let () =
  Alcotest.run "massbft_sim"
    [
      ( "sim",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "FIFO at equal times" `Quick test_fifo_at_equal_times;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
          Alcotest.test_case "NaN time rejected" `Quick test_nan_time_rejected;
          Alcotest.test_case "pending count" `Quick test_pending;
          Alcotest.test_case "pending excludes fired" `Quick
            test_pending_excludes_fired;
          Alcotest.test_case "slots recycled across compaction" `Quick test_slots_recycled;
        ] );
      ( "heap",
        [
          Alcotest.test_case "drain order" `Quick test_heap_drain_order;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek stable" `Quick test_heap_peek_stable;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_interleaved;
          QCheck_alcotest.to_alcotest prop_dispatch_order;
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
          Alcotest.test_case "parallel charge" `Quick test_cpu_submit_parallel;
        ] );
      ("dsl", [ Alcotest.test_case "timed-line core" `Quick test_timed_line ]);
      ( "topology",
        [
          Alcotest.test_case "shape" `Quick test_topology_shape;
          Alcotest.test_case "bad delays rejected at create" `Quick test_bad_delays_rejected;
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
          QCheck_alcotest.to_alcotest prop_fused_send;
          QCheck_alcotest.to_alcotest prop_send_path;
        ] );
      ( "budget",
        [
          Alcotest.test_case "remote message" `Quick test_budget_message;
          Alcotest.test_case "event" `Quick test_budget_event;
        ] );
    ]
