(* Tests for the Byzantine adversary engine: the strategy DSL
   (round-trip, validation, heal times), accountability evidence
   (signing, tamper detection, conflict pairs, the log), the strict
   no-op contract (an armed empty plan reproduces every system's golden
   fingerprint byte-for-byte), tolerable-vs-intolerable equivocation
   (one compromised leader is survived; leader + colluding follower —
   more than f Byzantine — splits the honest replicas and must be
   detected with a verified conflicting-signed-message pair), ddmin
   shrinking of adversary plans, and the shared injection-counter
   family's strategy label. *)

module Topology = Massbft_sim.Topology
module Config = Massbft.Config
module Registry = Massbft_obs.Registry
module Clusters = Massbft_harness.Clusters
module A = Massbft_adversary.Adv_spec
module Evidence = Massbft_adversary.Evidence
module Timed_line = Massbft_sim.Timed_line
module Invariants = Massbft_faults.Invariants
module Chaos = Massbft_faults.Chaos
module F = Massbft_faults.Fault_spec
module Rng = Massbft_util.Rng
module Golden = Golden_fixture

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let small_cfg = Golden_fixture.small_cfg
let small_spec = Golden_fixture.small_spec

(* ------------------------------------------------------------------ *)
(* DSL                                                                 *)
(* ------------------------------------------------------------------ *)

(* One event of every variant, with representative field values. *)
let kitchen_sink : A.plan =
  [
    {
      A.at = 2.0;
      strategy = A.Equivocate { target = A.Leader 0; for_s = 3.0 };
    };
    {
      A.at = 2.5;
      strategy = A.Equivocate_raft { target = A.Leader 1; for_s = 2.0 };
    };
    {
      A.at = 1.0;
      strategy =
        A.Withhold { target = A.Node { Topology.g = 0; n = 1 }; for_s = 2.5 };
    };
    {
      A.at = 4.0;
      strategy =
        A.Split_votes { target = A.Node { Topology.g = 1; n = 2 }; for_s = 2.0 };
    };
    {
      A.at = 1.5;
      strategy =
        A.Replay { target = A.Leader 2; copies = 2; gap_s = 0.25; for_s = 2.0 };
    };
    {
      A.at = 2.25;
      strategy =
        A.Delay_valid
          { target = A.Node { Topology.g = 1; n = 3 }; add_s = 0.3; for_s = 1.5 };
    };
    {
      A.at = 6.0;
      strategy =
        A.Tamper { target = A.Node { Topology.g = 2; n = 3 }; for_s = 10.0 };
    };
  ]

let test_round_trip () =
  let text = A.to_string kitchen_sink in
  let back = A.of_string text in
  check_bool "of_string (to_string p) = p" true (back = kitchen_sink);
  check_string "second round-trip is byte-identical" text (A.to_string back)

let test_parse_comments_and_errors () =
  let plan =
    A.of_string
      "# a comment\n\n@2 equivocate leader:g0 for 3\n  \n@1 tamper node:g0/n3 \
       for 2\n"
  in
  check_int "comments and blanks skipped" 2 (List.length plan);
  let error text =
    match A.of_string text with
    | _ -> "accepted"
    | exception Timed_line.Parse_error m -> m
  in
  let raises text = error text <> "accepted" in
  check_bool "unknown strategy rejected" true (raises "@1 bribe leader:g0 for 1");
  check_bool "missing @time rejected" true (raises "equivocate leader:g0 for 1");
  check_bool "bad target rejected" true (raises "@1 equivocate g0/n1 for 1");
  check_bool "missing keyword arg rejected" true
    (raises "@1 replay leader:g0 copies 2 for 1");
  check_bool "bad number rejected" true (raises "@1 equivocate leader:g0 for x");
  check_string "an argument too many names the item, not \"unknown strategy\""
    {|line 4: tamper: unexpected token "copies"|}
    (error
       "# c\n@0 withhold node:g0/n1 for 1\n\n@0.5 tamper node:g0/n3 for 0.2 \
        copies 9\n")

let prop_chaos_round_trip =
  QCheck.Test.make
    ~name:"adversary DSL round-trips every generated plan, for every strategy"
    ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 3 7))
    (fun (seed, groups) ->
      let spec = Clusters.nationwide ~groups ~nodes_per_group:4 () in
      List.for_all
        (fun strategy ->
          let plan, sched =
            Chaos.gen_adversary
              (Rng.create (Int64.of_int seed))
              ~cfg:(small_cfg ()) ~spec ~duration:8.0 ~strategy
          in
          let text = A.to_string plan and ftext = F.to_string sched in
          A.of_string text = plan
          && A.to_string (A.of_string text) = text
          && F.of_string ftext = sched)
        A.kind_names)

let test_validate () =
  let gs = [| 4; 4; 4 |] in
  let ok p = A.validate ~group_sizes:gs p = Ok () in
  check_bool "kitchen sink validates" true (ok kitchen_sink);
  let bad strategy = not (ok [ { A.at = 1.0; strategy } ]) in
  check_bool "leader group out of range" true
    (bad (A.Equivocate { target = A.Leader 7; for_s = 1.0 }));
  check_bool "node out of range" true
    (bad (A.Withhold { target = A.Node { Topology.g = 0; n = 9 }; for_s = 1.0 }));
  check_bool "non-positive window rejected" true
    (bad (A.Tamper { target = A.Leader 0; for_s = 0.0 }));
  check_bool "replay copies < 1 rejected" true
    (bad (A.Replay { target = A.Leader 0; copies = 0; gap_s = 0.1; for_s = 1.0 }));
  check_bool "replay gap <= 0 rejected" true
    (bad (A.Replay { target = A.Leader 0; copies = 1; gap_s = 0.0; for_s = 1.0 }));
  check_bool "delay add <= 0 rejected" true
    (bad (A.Delay_valid { target = A.Leader 0; add_s = 0.0; for_s = 1.0 }));
  check_bool "negative time rejected" true
    (A.validate ~group_sizes:gs
       [
         {
           A.at = -1.0;
           strategy = A.Equivocate { target = A.Leader 0; for_s = 1.0 };
         };
       ]
    <> Ok ())

let test_heal_time_and_sorted () =
  let feq = Alcotest.(check (float 1e-9)) in
  feq "empty plan heals at 0" 0.0 (A.heal_time []);
  feq "heal time is the last closing window" 16.0 (A.heal_time kitchen_sink);
  let s = A.sorted kitchen_sink in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a.A.at <= b.A.at && nondecreasing rest
    | _ -> true
  in
  check_bool "sorted by time" true (nondecreasing s);
  check_int "same events" (List.length kitchen_sink) (List.length s)

(* ------------------------------------------------------------------ *)
(* Evidence                                                            *)
(* ------------------------------------------------------------------ *)

let master = Evidence.default_master

let sample_signed ?(claim = "digest-one\x00raw") () =
  Evidence.sign ~master ~signer:"g0/n1" ~kind:"pbft-commit" ~gid:0 ~seq:7
    ~slot:"v2" ~claim

let test_evidence_sign_verify () =
  let s = sample_signed () in
  check_bool "fresh signature verifies" true (Evidence.verify_signed ~master s);
  check_bool "tampered claim fails" false
    (Evidence.verify_signed ~master { s with Evidence.e_claim = "other" });
  check_bool "tampered seq fails" false
    (Evidence.verify_signed ~master { s with Evidence.e_seq = 8 });
  check_bool "wrong signer fails" false
    (Evidence.verify_signed ~master { s with Evidence.e_signer = "g0/n2" });
  check_bool "wrong master fails" false
    (Evidence.verify_signed ~master:"other-master" s)

let test_evidence_pair () =
  let a = sample_signed () in
  let b = sample_signed ~claim:"digest-two" () in
  check_bool "conflicting claims verify as a pair" true
    (Evidence.verify_pair ~master { Evidence.first = a; second = b });
  check_bool "same claim is not a conflict" false
    (Evidence.verify_pair ~master { Evidence.first = a; second = a });
  let other_slot = { b with Evidence.e_slot = "v3" } in
  check_bool "different slots are not a conflict" false
    (Evidence.verify_pair ~master { Evidence.first = a; second = other_slot });
  let forged = { b with Evidence.e_tag = String.make 32 '\x00' } in
  check_bool "a bad signature invalidates the pair" false
    (Evidence.verify_pair ~master { Evidence.first = a; second = forged })

let test_evidence_text_round_trip () =
  let a = sample_signed () in
  let b = sample_signed ~claim:"digest two with spaces? \xff" () in
  let line = Evidence.signed_to_string a in
  check_bool "signed round-trips" true (Evidence.signed_of_string line = a);
  let p = { Evidence.first = a; second = b } in
  let text = Evidence.pair_to_string p in
  check_bool "pair round-trips" true (Evidence.pair_of_string text = p);
  check_bool "round-tripped pair still verifies" true
    (Evidence.verify_pair ~master (Evidence.pair_of_string text));
  let raises t =
    match Evidence.pair_of_string t with
    | _ -> false
    | exception Timed_line.Parse_error _ -> true
  in
  check_bool "garbage rejected" true (raises "signed what\n");
  check_bool "bad hex rejected" true
    (raises "signed g0/n1 pbft-commit 0 7 v2 zz zz\nsigned g0/n1 pbft-commit 0 7 v2 aa aa\n")

let test_evidence_log () =
  let log = Evidence.create_log () in
  let obs claim =
    Evidence.observe log ~signer:"g0/n0" ~kind:"pbft-pre-prepare" ~gid:0 ~seq:3
      ~slot:"v0" ~claim
  in
  obs "alpha";
  obs "alpha";
  check_int "duplicate claims dedup" 1 (Evidence.recorded log);
  check_bool "no conflict yet" true (Evidence.conflicts log = []);
  obs "beta";
  check_int "second distinct claim recorded" 2 (Evidence.recorded log);
  (match Evidence.conflicts log with
  | [ p ] ->
      check_bool "conflict pair verifies" true (Evidence.verify log p);
      check_bool "claims differ" true
        (p.Evidence.first.Evidence.e_claim <> p.Evidence.second.Evidence.e_claim)
  | l -> Alcotest.failf "expected exactly one conflict, got %d" (List.length l));
  obs "gamma";
  check_int "at most one pair per slot" 1 (List.length (Evidence.conflicts log));
  check_bool "conflict_for finds the slot" true
    (Evidence.conflict_for log ~gid:0 ~seq:3 <> None);
  check_bool "conflict_for misses other slots" true
    (Evidence.conflict_for log ~gid:0 ~seq:4 = None);
  (* A different signer claiming a different value is not a conflict:
     accountability only ever blames a single equivocating node. *)
  Evidence.observe log ~signer:"g0/n1" ~kind:"pbft-pre-prepare" ~gid:1 ~seq:3
    ~slot:"v0" ~claim:"alpha";
  Evidence.observe log ~signer:"g0/n2" ~kind:"pbft-pre-prepare" ~gid:1 ~seq:3
    ~slot:"v0" ~claim:"beta";
  check_bool "cross-signer disagreement is no conflict" true
    (Evidence.conflict_for log ~gid:1 ~seq:3 = None)

(* ------------------------------------------------------------------ *)
(* Strict no-op                                                        *)
(* ------------------------------------------------------------------ *)

(* An armed empty-plan adversary must not schedule a single event or
   perturb one message: every system's run stays byte-identical to its
   recorded golden fingerprint. *)
let test_noop_golden () =
  List.iter
    (fun system ->
      let name = Config.system_name system in
      let recorded =
        Golden.load (Filename.concat "golden" (Golden.file_of_system system))
      in
      let fresh =
        Golden.capture
          ~attach:(fun d ->
            let adv =
              Massbft_adversary.Adversary.create
                ~spec:(Clusters.nationwide ~nodes_per_group:4 ())
                ~plan:[] d.Massbft_faults.Deployment.engine d.sim
            in
            Massbft_adversary.Adversary.arm adv)
          ~system ()
      in
      check_string
        (name ^ " fingerprint unchanged under an empty adversary")
        (Golden.to_string recorded)
        (Golden.to_string fresh))
    Config.all_systems

(* ------------------------------------------------------------------ *)
(* Tolerable vs intolerable equivocation                               *)
(* ------------------------------------------------------------------ *)

let run_plan ?(system = Config.Massbft) ?(registry : Registry.t option) plan =
  Chaos.run_schedule ~duration:6.0 ~liveness_bound_s:3.0 ?registry
    ~adversary:plan ~spec:(small_spec ()) ~cfg:(small_cfg ~system ()) []

let safety_violations (o : Chaos.outcome) =
  List.filter
    (fun (v : Invariants.violation) -> v.Invariants.check <> "liveness")
    o.Chaos.violations

(* One equivocating leader in a 4-node group is within f = 1: honest
   replicas never disagree (the protocol may burn a slot's votes and
   recover through a view change, but safety holds) and the run settles
   after the window closes. *)
let test_single_equivocator_tolerated () =
  let plan =
    [
      { A.at = 1.0; strategy = A.Equivocate { target = A.Leader 0; for_s = 2.0 } };
    ]
  in
  let o = run_plan plan in
  check_bool "no safety violation" true (safety_violations o = []);
  check_bool "adversary actually interfered" true (o.Chaos.adv_injected > 0);
  check_bool "evidence caught the equivocation" true (o.Chaos.evidence <> []);
  List.iter
    (fun p ->
      check_bool "every logged conflict pair verifies" true
        (Evidence.verify_pair ~master:Evidence.default_master p))
    o.Chaos.evidence

(* Leader plus colluding follower is 2 Byzantine in a 4-node group —
   beyond f = 1, and the parity fork is engineered so the two honest
   replicas land on opposite halves: a genuine safety violation, which
   the checkers must detect and pin on the equivocators with a
   verified conflicting-signed-message pair. *)
let intolerable_plan =
  [
    {
      A.at = 0.5;
      strategy =
        A.Equivocate { target = A.Node { Topology.g = 0; n = 0 }; for_s = 4.0 };
    };
    {
      A.at = 0.5;
      strategy =
        A.Equivocate { target = A.Node { Topology.g = 0; n = 1 }; for_s = 4.0 };
    };
  ]

let test_intolerable_detected_with_evidence () =
  let o = run_plan intolerable_plan in
  let safety = safety_violations o in
  check_bool "more than f equivocators break safety" true (safety <> []);
  check_bool "an honest-disagreement violation is reported" true
    (List.exists
       (fun (v : Invariants.violation) ->
         v.Invariants.check = "replica_prefix")
       safety);
  List.iter
    (fun (v : Invariants.violation) ->
      match v.Invariants.evidence with
      | None ->
          Alcotest.failf "violation lacks evidence: %s"
            (Invariants.violation_to_string v)
      | Some p ->
          check_bool "attached pair verifies" true
            (Evidence.verify_pair ~master:Evidence.default_master p);
          check_bool "pair blames a compromised node" true
            (List.mem p.Evidence.first.Evidence.e_signer [ "g0/n0"; "g0/n1" ]))
    safety;
  check_bool "the run is accountable" true (Chaos.accountable o)

let test_intolerable_shrinks_to_pair () =
  (* ddmin over the adversary plan: noise strategies fall away, both
     colluding equivocators survive (dropping either makes the run
     tolerable — the reproducer is 1-minimal). *)
  let noise =
    [
      {
        A.at = 1.0;
        strategy =
          A.Delay_valid
            { target = A.Node { Topology.g = 1; n = 2 }; add_s = 0.1; for_s = 1.0 };
      };
      {
        A.at = 1.5;
        strategy =
          A.Replay { target = A.Leader 2; copies = 1; gap_s = 0.2; for_s = 1.0 };
      };
      {
        A.at = 2.0;
        strategy =
          A.Tamper { target = A.Node { Topology.g = 2; n = 3 }; for_s = 1.0 };
      };
    ]
  in
  let plan = A.sorted (intolerable_plan @ noise) in
  let fails p = safety_violations (run_plan p) <> [] in
  let shrunk = Chaos.shrink ~fails plan in
  check_string "shrinks to the two colluding equivocators"
    (A.to_string (A.sorted intolerable_plan))
    (A.to_string shrunk)

(* ------------------------------------------------------------------ *)
(* Metrics: the shared injection-counter family                        *)
(* ------------------------------------------------------------------ *)

let test_injection_counter_strategy_label () =
  let registry = Registry.create () in
  let o =
    run_plan ~registry
      [
        {
          A.at = 1.0;
          strategy = A.Equivocate { target = A.Leader 0; for_s = 2.0 };
        };
      ]
  in
  check_bool "interference happened" true (o.Chaos.adv_injected > 0);
  let series =
    List.filter
      (fun (s : Registry.sample) ->
        s.Registry.name = "massbft_faults_injected_total")
      (Registry.collect registry)
  in
  match
    List.find_opt
      (fun (s : Registry.sample) ->
        List.mem ("strategy", "equivocate") s.Registry.labels
        && List.mem ("kind", "adversary") s.Registry.labels)
      series
  with
  | Some { Registry.point = Registry.P_counter n; _ } ->
      check_int "counter matches the adversary's own count"
        o.Chaos.adv_injected n
  | Some _ -> Alcotest.fail "wrong instrument kind"
  | None ->
      Alcotest.fail
        "no massbft_faults_injected_total{kind=adversary,strategy=equivocate} \
         series"

(* ------------------------------------------------------------------ *)
(* Determinism of the adversary axis                                   *)
(* ------------------------------------------------------------------ *)

let test_adversary_drill_deterministic () =
  let cfg = small_cfg () and spec = small_spec () in
  let go () =
    Chaos.drill ~duration:4.0 ~shrink_failures:false ~adversary:"equivocate"
      ~spec ~cfg ~seed:11L ()
  in
  let a = go () and b = go () in
  check_string "byte-identical generated plan"
    (A.to_string a.Chaos.outcome.Chaos.adversary)
    (A.to_string b.Chaos.outcome.Chaos.adversary);
  check_int "identical executed count" a.Chaos.outcome.Chaos.executed
    b.Chaos.outcome.Chaos.executed;
  check_int "identical interference count" a.Chaos.outcome.Chaos.adv_injected
    b.Chaos.outcome.Chaos.adv_injected;
  check_bool "identical verdict" true
    (Chaos.failed a.Chaos.outcome = Chaos.failed b.Chaos.outcome)

let () =
  Alcotest.run "adversary"
    [
      ( "dsl",
        [
          Alcotest.test_case "round-trip" `Quick test_round_trip;
          Alcotest.test_case "comments and parse errors" `Quick
            test_parse_comments_and_errors;
          QCheck_alcotest.to_alcotest prop_chaos_round_trip;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "heal-time and sorted" `Quick
            test_heal_time_and_sorted;
        ] );
      ( "evidence",
        [
          Alcotest.test_case "sign and verify" `Quick test_evidence_sign_verify;
          Alcotest.test_case "conflict pairs" `Quick test_evidence_pair;
          Alcotest.test_case "text round-trip" `Quick
            test_evidence_text_round_trip;
          Alcotest.test_case "log" `Quick test_evidence_log;
        ] );
      ( "noop",
        [ Alcotest.test_case "golden fingerprints" `Slow test_noop_golden ] );
      ( "equivocation",
        [
          Alcotest.test_case "single equivocator tolerated" `Slow
            test_single_equivocator_tolerated;
          Alcotest.test_case "intolerable: detected with evidence" `Slow
            test_intolerable_detected_with_evidence;
          Alcotest.test_case "intolerable: shrinks to the pair" `Slow
            test_intolerable_shrinks_to_pair;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "strategy label" `Slow
            test_injection_counter_strategy_label;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same adversary run" `Slow
            test_adversary_drill_deterministic;
        ] );
    ]
