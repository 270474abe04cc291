(* Tests for the chaos layer: the fault-schedule DSL (round-trip,
   validation, heal times), seeded determinism of the fuzzer (same seed
   => byte-identical schedule and result-identical run), a miniature
   campaign, detection + ddmin-shrinking of a deliberately intolerable
   schedule, and the fault-drill regression (throughput recovers after
   a healed group crash; tampered chunks never reach a ledger). *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Config = Massbft.Config
module Engine = Massbft.Engine
module Metrics = Massbft.Metrics
module Stats = Massbft_util.Stats
module Rng = Massbft_util.Rng
module Clusters = Massbft_harness.Clusters
module F = Massbft_faults.Fault_spec
module Timed_line = Massbft_sim.Timed_line
module Injector = Massbft_faults.Injector
module Invariants = Massbft_faults.Invariants
module Chaos = Massbft_faults.Chaos
module Adv_spec = Massbft_adversary.Adv_spec
module Deployment = Massbft_faults.Deployment

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Same small cluster the engine tests use: 3 groups x 4 nodes. *)
let small_cfg = Golden_fixture.small_cfg
let small_spec = Golden_fixture.small_spec

(* ------------------------------------------------------------------ *)
(* DSL                                                                 *)
(* ------------------------------------------------------------------ *)

(* One event of every variant, with representative field values. *)
let kitchen_sink : F.schedule =
  [
    { F.at = 1.0; fault = F.Crash_node { Topology.g = 0; n = 1 } };
    { F.at = 2.5; fault = F.Recover_node { Topology.g = 0; n = 1 } };
    { F.at = 3.0; fault = F.Crash_group 1 };
    { F.at = 4.25; fault = F.Recover_group 1 };
    { F.at = 0.5; fault = F.Partition { groups = [ 0; 2 ]; for_s = 1.5 } };
    {
      F.at = 1.125;
      fault =
        F.Link_drop { src_g = 0; dst_g = 1; every = 3; cls = F.Bulk; for_s = 2.0 };
    };
    {
      F.at = 2.0;
      fault =
        F.Link_delay
          { src_g = 1; dst_g = 2; add_s = 0.04; cls = F.Control; for_s = 1.0 };
    };
    {
      F.at = 2.75;
      fault =
        F.Link_dup
          { src_g = 2; dst_g = 0; copies = 2; every = 2; cls = F.Any; for_s = 1.0 };
    };
    { F.at = 5.0; fault = F.Wan_degrade { g = 2; factor = 0.25; for_s = 2.0 } };
    { F.at = 5.5; fault = F.Lan_degrade { g = 0; factor = 0.5; for_s = 1.0 } };
    {
      F.at = 6.0;
      fault = F.Slow_cpu { addr = { Topology.g = 1; n = 3 }; factor = 4.0; for_s = 2.0 };
    };
  ]

let test_round_trip () =
  let text = F.to_string kitchen_sink in
  let back = F.of_string text in
  check_bool "of_string (to_string s) = s" true (back = kitchen_sink);
  check_string "second round-trip is byte-identical" text (F.to_string back)

let test_parse_comments_and_errors () =
  let sched =
    F.of_string
      "# a comment\n\n@1 crash-node g0/n2\n   \n# another\n@2 recover-node g0/n2\n"
  in
  check_int "comments and blanks skipped" 2 (List.length sched);
  let error text =
    match F.of_string text with
    | _ -> "accepted"
    | exception Timed_line.Parse_error m -> m
  in
  let raises text = error text <> "accepted" in
  check_bool "unknown fault rejected" true (raises "@1 explode g0");
  check_bool "missing @time rejected" true (raises "crash-node g0/n0");
  check_bool "bad address rejected" true (raises "@1 crash-node n0/g0");
  check_bool "missing keyword rejected" true (raises "@1 partition g0");
  check_string "a typo'd keyword is rejected, with its line"
    {|line 3: link-delay: unexpected token "evry"|}
    (error
       "# c\n\n@1 link-delay g0->g1 add 0.1 class bulk for 0.5 evry 3\n");
  check_string "one argument too many names the item"
    {|line 2: crash-group: unexpected token "g1"|}
    (error "@1 crash-node g0/n0\n@2 crash-group g0 g1\n")

(* A generated run shape: seed, system, group count and size, and run
   length. *)
let gen_shape =
  QCheck.make
    QCheck.Gen.(
      quad (int_bound 1_000_000)
        (oneofl Config.all_systems)
        (pair (int_range 3 7) (int_range 4 10))
        (oneofl [ 8.0; 12.0; 30.0 ]))

let prop_chaos_round_trip =
  QCheck.Test.make ~name:"fault DSL round-trips every generated schedule"
    ~count:300 gen_shape (fun (seed, system, (groups, nodes), duration) ->
      let sched =
        Chaos.gen_schedule
          (Rng.create (Int64.of_int seed))
          ~cfg:(small_cfg ~system ())
          ~spec:(Clusters.nationwide ~groups ~nodes_per_group:nodes ())
          ~duration
      in
      let text = F.to_string sched in
      F.of_string text = sched && F.to_string (F.of_string text) = text)

let test_validate () =
  let gs = [| 4; 4; 4 |] in
  let ok s = F.validate ~group_sizes:gs s = Ok () in
  check_bool "kitchen sink validates" true (ok kitchen_sink);
  let bad fault = not (ok [ { F.at = 1.0; fault } ]) in
  check_bool "node out of range" true
    (bad (F.Crash_node { Topology.g = 0; n = 9 }));
  check_bool "group out of range" true (bad (F.Crash_group 7));
  check_bool "LAN link fault rejected" true
    (bad (F.Link_drop { src_g = 1; dst_g = 1; every = 1; cls = F.Any; for_s = 1.0 }));
  check_bool "degrade factor > 1 rejected" true
    (bad (F.Wan_degrade { g = 0; factor = 1.5; for_s = 1.0 }));
  check_bool "slow-cpu factor < 1 rejected" true
    (bad (F.Slow_cpu { addr = { Topology.g = 0; n = 0 }; factor = 0.5; for_s = 1.0 }));
  check_bool "negative time rejected" true
    (F.validate ~group_sizes:gs
       [ { F.at = -1.0; fault = F.Crash_group 0 } ]
    <> Ok ())

let test_heal_time () =
  let feq = Alcotest.(check (float 1e-9)) in
  feq "empty schedule heals at 0" 0.0 (F.heal_time []);
  feq "window fault heals when its window closes" 3.5
    (F.heal_time
       [ { F.at = 1.5; fault = F.Wan_degrade { g = 0; factor = 0.5; for_s = 2.0 } } ]);
  feq "crash heals at its recover event" 4.25
    (F.heal_time
       [
         { F.at = 3.0; fault = F.Crash_group 1 };
         { F.at = 4.25; fault = F.Recover_group 1 };
       ]);
  check_bool "unrecovered crash never heals" true
    (F.heal_time [ { F.at = 1.0; fault = F.Crash_node { Topology.g = 0; n = 1 } } ]
    = infinity);
  feq "recovery of the wrong node does not heal the crash" infinity
    (F.heal_time
       [
         { F.at = 1.0; fault = F.Crash_node { Topology.g = 0; n = 1 } };
         { F.at = 2.0; fault = F.Recover_node { Topology.g = 0; n = 2 } };
       ])

let test_sorted () =
  let s = F.sorted kitchen_sink in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a.F.at <= b.F.at && nondecreasing rest
    | _ -> true
  in
  check_bool "sorted by time" true (nondecreasing s);
  check_int "same events" (List.length kitchen_sink) (List.length s)

(* ------------------------------------------------------------------ *)
(* Seeded determinism                                                  *)
(* ------------------------------------------------------------------ *)

let test_same_seed_same_schedule () =
  let cfg = small_cfg () and spec = small_spec () in
  let gen () =
    let rng = Rng.create 42L in
    F.to_string (Chaos.gen_schedule rng ~cfg ~spec ~duration:8.0)
  in
  check_string "same seed generates a byte-identical schedule" (gen ()) (gen ());
  let other =
    let rng = Rng.create 43L in
    F.to_string (Chaos.gen_schedule rng ~cfg ~spec ~duration:8.0)
  in
  check_bool "a different seed generates a different schedule" true
    (not (String.equal (gen ()) other))

let test_same_seed_same_run () =
  (* The acceptance bar for reproducibility: drilling the same seed
     twice yields a byte-identical schedule and an identical result. *)
  let cfg = small_cfg () and spec = small_spec () in
  let go () =
    Chaos.drill ~duration:3.0 ~shrink_failures:false ~spec ~cfg ~seed:7L ()
  in
  let a = go () and b = go () in
  check_string "byte-identical schedule"
    (F.to_string a.Chaos.outcome.Chaos.schedule)
    (F.to_string b.Chaos.outcome.Chaos.schedule);
  check_int "identical executed count" a.Chaos.outcome.Chaos.executed
    b.Chaos.outcome.Chaos.executed;
  check_int "identical injection count" a.Chaos.outcome.Chaos.injected
    b.Chaos.outcome.Chaos.injected;
  check_bool "identical verdict" true
    (Chaos.failed a.Chaos.outcome = Chaos.failed b.Chaos.outcome)

(* ------------------------------------------------------------------ *)
(* Campaign and shrinking                                              *)
(* ------------------------------------------------------------------ *)

let test_mini_campaign () =
  let cfg = small_cfg () and spec = small_spec () in
  let r =
    Chaos.campaign ~duration:3.0
      ~systems:[ Config.Massbft; Config.Baseline ]
      ~spec ~cfg ~seeds:[ 1L; 2L ] ()
  in
  check_int "2 systems x 2 seeds" 4 r.Chaos.total;
  List.iter
    (fun (d : Chaos.drill_result) ->
      check_bool
        (Format.asprintf "%a" Chaos.pp_drill d)
        false
        (Chaos.failed d.Chaos.outcome);
      check_bool "made progress under faults" true
        (d.Chaos.outcome.Chaos.executed > 0);
      check_bool "faults were injected" true (d.Chaos.outcome.Chaos.injected > 0))
    r.Chaos.results

let test_shrink_minimal () =
  (* ddmin against a synthetic oracle: failure iff the schedule still
     contains the g1 crash. The other ten events must all be dropped. *)
  let is_crash e = e.F.fault = F.Crash_group 1 in
  let fails s = List.exists is_crash s in
  let shrunk = Chaos.shrink ~fails (F.sorted kitchen_sink) in
  check_int "shrunk to the single culprit event" 1 (List.length shrunk);
  check_bool "and it is the crash" true (List.for_all is_crash shrunk);
  let healthy = List.filter (fun e -> not (is_crash e)) kitchen_sink in
  check_bool "a passing schedule is returned unchanged" true
    (Chaos.shrink ~fails healthy == healthy)

(* The last node of each 4-node group (f = 1) tampers with every chunk
   it sends or forwards from 1 s on. *)
let tamperers =
  Adv_spec.of_string
    "@1 tamper node:g0/n3 for 17\n@1 tamper node:g1/n3 for 17\n\
     @1 tamper node:g2/n3 for 17\n"

(* GeoBFT has no global retransmission: an (unhealed) group crash stalls
   the round barrier forever, which the liveness watchdog must flag.
   This is the "deliberately broken" case — the chaos generator never
   draws it, but the checkers must catch it when it happens. *)
let geobft_stalls schedule =
  let d =
    Deployment.build ~faults:schedule ~adversary:tamperers ~spec:(small_spec ())
      ~cfg:(small_cfg ~system:Config.Geobft ()) ()
  in
  (* heal_by is forced: the schedule deliberately never recovers, and
     the point is to assert the stall. *)
  let inv =
    Invariants.create ~liveness_bound_s:1.0 ~heal_by:2.0 d.engine d.sim
  in
  Deployment.start d;
  Invariants.attach inv;
  Sim.run d.sim ~until:6.0;
  Invariants.finalize inv;
  List.exists
    (fun (v : Invariants.violation) -> v.Invariants.check = "liveness")
    (Invariants.violations inv)

let test_broken_invariant_detected_and_shrunk () =
  let noise =
    [
      {
        F.at = 0.8;
        fault =
          F.Link_delay
            { src_g = 0; dst_g = 1; add_s = 0.02; cls = F.Any; for_s = 0.5 };
      };
      {
        F.at = 1.0;
        fault =
          F.Slow_cpu { addr = { Topology.g = 2; n = 1 }; factor = 3.0; for_s = 0.5 };
      };
      { F.at = 1.2; fault = F.Wan_degrade { g = 1; factor = 0.5; for_s = 0.5 } };
    ]
  in
  let culprit = { F.at = 1.5; fault = F.Crash_group 0 } in
  let schedule = F.sorted (culprit :: noise) in
  check_bool "the intolerable schedule is detected" true (geobft_stalls schedule);
  check_bool "the benign noise alone passes" false (geobft_stalls noise);
  let shrunk = Chaos.shrink ~fails:geobft_stalls schedule in
  check_string "shrinks to the bare group crash"
    (F.to_string [ culprit ])
    (F.to_string shrunk)

(* ------------------------------------------------------------------ *)
(* Fault-drill regression                                              *)
(* ------------------------------------------------------------------ *)

let test_drill_recovery_and_tamper_safety () =
  (* The §VI-E drill at test scale: Byzantine chunk tampering from 1 s,
     a whole data center down at 4 s, restored at 6 s. Invariants stay
     green throughout (a tampered chunk reaching a ledger would break
     replica_prefix / cross_chain / ledger_integrity), and throughput
     well after the restore recovers to >= 80% of the pre-crash rate. *)
  let crash_at = 4.0 and recover_at = 6.0 and until = 18.0 in
  let cfg = small_cfg () in
  let spec = small_spec () in
  let schedule =
    F.of_string
      (Printf.sprintf "@%g crash-group g0\n@%g recover-group g0\n" crash_at
         recover_at)
  in
  let d = Deployment.build ~faults:schedule ~adversary:tamperers ~spec ~cfg () in
  let inv = Invariants.create ~heal_by:(F.heal_time schedule) d.engine d.sim in
  Deployment.start d;
  Invariants.attach inv;
  Sim.run d.sim ~until;
  Invariants.finalize inv;
  List.iter
    (fun v -> Alcotest.fail (Invariants.violation_to_string v))
    (Invariants.violations inv);
  check_int "both events injected" 2 (Injector.injected_total d.injector);
  let series =
    Stats.Timeseries.rate_series (Engine.metrics d.engine).Metrics.txn_rate
  in
  let window lo hi =
    let rates =
      List.filter_map
        (fun (t, r) -> if t >= lo && t < hi then Some r else None)
        series
    in
    match rates with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 rates /. float_of_int (List.length rates)
  in
  let before = window 1.0 crash_at in
  let after = window (until -. 4.0) (until -. 1.0) in
  check_bool "committing before the crash" true (before > 0.0);
  check_bool
    (Printf.sprintf "throughput recovered to >= 80%% (%.0f -> %.0f tps)" before
       after)
    true
    (after >= 0.8 *. before)

let () =
  Alcotest.run "faults"
    [
      ( "dsl",
        [
          Alcotest.test_case "round-trip" `Quick test_round_trip;
          Alcotest.test_case "comments and parse errors" `Quick
            test_parse_comments_and_errors;
          QCheck_alcotest.to_alcotest prop_chaos_round_trip;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "heal-time" `Quick test_heal_time;
          Alcotest.test_case "sorted" `Quick test_sorted;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same schedule" `Quick
            test_same_seed_same_schedule;
          Alcotest.test_case "same seed, same run" `Quick
            test_same_seed_same_run;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "mini campaign" `Slow test_mini_campaign;
          Alcotest.test_case "ddmin is 1-minimal" `Quick test_shrink_minimal;
          Alcotest.test_case "broken invariant: detect and shrink" `Slow
            test_broken_invariant_detected_and_shrunk;
        ] );
      ( "drill",
        [
          Alcotest.test_case "recovery and tamper safety" `Slow
            test_drill_recovery_and_tamper_safety;
        ] );
    ]
