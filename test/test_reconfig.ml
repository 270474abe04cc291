(* Tests for live membership reconfiguration: the plan DSL (round-trip
   as a qcheck property, parse errors, the validation floors), seeded
   determinism of the scenario generator, the no-op guarantee (an empty
   plan perturbs nothing, byte-identically, for every system), a join's
   state-transfer receipt, content release under a plan, group-removal
   drills that fork the chain if the flip lands at the wrong point, the
   mid-transfer-crash drill (a deliberately intolerable schedule is
   detected and ddmin-shrinks to its culprit while the plan — the
   scenario's identity — stays fixed), and the CLI's exit-2 one-line
   diagnostics for malformed plan files. *)

module Topology = Massbft_sim.Topology
module Config = Massbft.Config
module Rng = Massbft_util.Rng
module Clusters = Massbft_harness.Clusters
module Runner = Massbft_harness.Runner
module R = Massbft_reconfig.Reconfig_spec
module Timed_line = Massbft_sim.Timed_line
module Reconfig = Massbft_reconfig.Reconfig
module F = Massbft_faults.Fault_spec
module Chaos = Massbft_faults.Chaos
module N = Massbft.Node_ctx

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let small_cfg = Golden_fixture.small_cfg
let small_spec = Golden_fixture.small_spec

(* ------------------------------------------------------------------ *)
(* DSL                                                                 *)
(* ------------------------------------------------------------------ *)

(* One event of every variant. *)
let kitchen_sink : R.plan =
  [
    { R.at = 1.0; cmd = R.Add_node 1 };
    { R.at = 2.5; cmd = R.Remove_node 2 };
    { R.at = 3.125; cmd = R.Move_leader { Topology.g = 0; n = 2 } };
    { R.at = 4.0; cmd = R.Add_group { size = 4 } };
    { R.at = 5.75; cmd = R.Remove_group 1 };
  ]

let test_round_trip () =
  let text = R.to_string kitchen_sink in
  let back = R.of_string text in
  check_bool "of_string (to_string p) = p" true (back = kitchen_sink);
  check_string "second round-trip is byte-identical" text (R.to_string back)

(* The qcheck property behind the unit case: any plan of generated
   commands survives a text round-trip exactly. Times are millisecond-
   quantized below 100 s, which the DSL's %g form prints losslessly. *)
let gen_plan =
  let open QCheck.Gen in
  let cmd =
    oneof
      [
        map (fun g -> R.Add_node g) (int_range 0 5);
        map (fun g -> R.Remove_node g) (int_range 0 5);
        map2
          (fun g n -> R.Move_leader { Topology.g; n })
          (int_range 0 5) (int_range 0 8);
        map (fun size -> R.Add_group { size }) (int_range 4 9);
        map (fun g -> R.Remove_group g) (int_range 0 5);
      ]
  in
  let event =
    map2
      (fun ms cmd -> { R.at = float_of_int ms /. 1000.0; cmd })
      (int_range 0 99_999) cmd
  in
  list_size (int_range 0 10) event

let prop_round_trip =
  QCheck.Test.make ~name:"reconfig DSL round-trips any generated plan"
    ~count:500 (QCheck.make gen_plan) (fun plan ->
      let text = R.to_string plan in
      R.of_string text = plan && R.to_string (R.of_string text) = text)

let test_parse_comments_and_errors () =
  let plan =
    R.of_string
      "# a comment\n\n@1 add-node g1\n   \n# another\n@2.5 move-leader g0/n2\n"
  in
  check_int "comments and blanks skipped" 2 (List.length plan);
  let error text =
    match R.of_string text with
    | _ -> "accepted"
    | exception Timed_line.Parse_error m -> m
  in
  let raises text = error text <> "accepted" in
  check_bool "unknown command rejected" true (raises "@1 frobnicate g0");
  check_bool "missing @time rejected" true (raises "add-node g0");
  check_bool "bad group rejected" true (raises "@1 add-node n0");
  check_bool "bad address rejected" true (raises "@1 move-leader n0/g0");
  check_bool "missing keyword rejected" true (raises "@1 add-group g0");
  check_string "the diagnostic names the line and the first bad token"
    {|line 1: unknown command "frobnicate"|} (error "@1 frobnicate g0");
  check_string "an argument too many names the item and line"
    {|line 2: add-node: unexpected token "g2"|}
    (error "@1 add-node g1\n@2 add-node g1 g2\n");
  check_string "the controller's gid key is wire-form only"
    {|line 1: add-group: unexpected token "gid"|}
    (error "@1 add-group size 4 gid 3\n");
  check_bool "the wire form keeps the gid key" true
    (R.command_of_string "add-group size 4 gid 3" = R.Add_group { size = 4 })

let test_validate () =
  let gs = [| 4; 4; 4 |] in
  let ok p = R.validate ~group_sizes:gs p = Ok () in
  check_bool "a staged add/remove sequence validates" true
    (ok
       [
         { R.at = 1.0; cmd = R.Add_node 1 };
         { R.at = 3.0; cmd = R.Remove_node 1 };
         { R.at = 5.0; cmd = R.Add_group { size = 4 } };
         { R.at = 7.0; cmd = R.Remove_group 1 };
       ]);
  let bad cmd = not (ok [ { R.at = 1.0; cmd } ]) in
  check_bool "remove below 4 nodes rejected" true (bad (R.Remove_node 1));
  check_bool "group out of range rejected" true (bad (R.Add_node 7));
  check_bool "coordinator group irremovable" true (bad (R.Remove_group 0));
  check_bool "undersized group rejected" true (bad (R.Add_group { size = 3 }));
  check_bool "leader move to a dark slot rejected" true
    (bad (R.Move_leader { Topology.g = 0; n = 9 }));
  check_bool "negative time rejected" true
    (R.validate ~group_sizes:gs [ { R.at = -1.0; cmd = R.Add_node 0 } ]
    <> Ok ());
  check_bool "validation walks in time order" true
    (* the remove at 2.0 is legal only because the add at 1.0 executed *)
    (ok
       [
         { R.at = 2.0; cmd = R.Remove_node 1 };
         { R.at = 1.0; cmd = R.Add_node 1 };
       ])

(* ------------------------------------------------------------------ *)
(* Seeded determinism of the scenario generator                        *)
(* ------------------------------------------------------------------ *)

let test_gen_reconfig_deterministic () =
  let cfg = small_cfg () in
  let spec = Clusters.nationwide ~nodes_per_group:5 () in
  List.iter
    (fun kind ->
      let gen seed =
        let rng = Rng.create seed in
        let plan, faults =
          Chaos.gen_reconfig rng ~cfg ~spec ~duration:8.0 ~kind
        in
        (R.to_string plan, F.to_string faults)
      in
      let p1, f1 = gen 42L and p2, f2 = gen 42L in
      check_string (kind ^ ": same seed, same plan") p1 p2;
      check_string (kind ^ ": same seed, same paired chaos") f1 f2;
      check_bool (kind ^ ": generated plan validates") true
        (R.validate
           ~group_sizes:spec.Topology.group_sizes
           (R.of_string p1)
        = Ok ()))
    Chaos.reconfig_kinds

(* ------------------------------------------------------------------ *)
(* The no-op guarantee                                                 *)
(* ------------------------------------------------------------------ *)

let test_empty_plan_is_byte_identical () =
  (* An empty plan must provision nothing, arm nothing and perturb
     nothing: the full result record (throughput, latency series,
     phase breakdown...) is equal for all seven systems. *)
  let spec = small_spec () in
  List.iter
    (fun system ->
      let cfg = small_cfg ~system () in
      let go reconfig =
        Runner.run ~duration:2.0 ~warmup:1.0 ?reconfig ~spec ~cfg ()
      in
      check_bool
        (Config.system_name system ^ ": empty plan perturbs nothing")
        true
        (go None = go (Some [])))
    Config.all_systems

(* ------------------------------------------------------------------ *)
(* Join state transfer                                                 *)
(* ------------------------------------------------------------------ *)

let test_join_receipt () =
  (* A node join must activate with the donor's committed prefix, and
     every epoch-aware end-of-run check must come back clean. *)
  let cfg = small_cfg () in
  let spec = small_spec () in
  let plan = [ { R.at = 2.0; cmd = R.Add_node 1 } ] in
  let ctl = ref None in
  let _ =
    Runner.run ~duration:8.0 ~warmup:2.0 ~reconfig:plan
      ~on_start:(fun d -> ctl := Some d.Massbft_faults.Deployment.controller)
      ~spec ~cfg ()
  in
  let c = match !ctl with Some c -> c | None -> Alcotest.fail "no controller" in
  List.iter
    (fun (check, detail) -> Alcotest.fail (check ^ ": " ^ detail))
    (Reconfig.final_violations c);
  check_int "one epoch boundary executed" 1 (Reconfig.epochs c);
  match Reconfig.joins c with
  | [ j ] ->
      check_int "joined g1" 1 j.Reconfig.j_gid;
      check_bool "transfer moved bytes" true (j.Reconfig.j_bytes > 0);
      check_int "ledger height matches the donor's" j.Reconfig.j_src_height
        j.Reconfig.j_height;
      check_string "head hash matches the donor's" j.Reconfig.j_src_head
        j.Reconfig.j_head;
      check_bool "activated after the transfer started" true
        (j.Reconfig.j_activated > j.Reconfig.j_started)
  | js -> Alcotest.fail (Printf.sprintf "expected 1 join, got %d" (List.length js))

(* A node join changes no group's membership, so every leader executes
   every entry: once the last one has, the entry's transaction closures
   and memoized outcome are released exactly as in a run without a
   plan. *)
let test_join_releases_executed_content () =
  let cfg = small_cfg () in
  let spec = small_spec () in
  let plan = [ { R.at = 2.0; cmd = R.Add_node 1 } ] in
  let eng = ref None in
  let _ =
    Runner.run ~duration:6.0 ~warmup:2.0 ~reconfig:plan
      ~on_start:(fun d -> eng := Some d.Massbft_faults.Deployment.engine)
      ~spec ~cfg ()
  in
  let c =
    match !eng with
    | Some e -> Massbft.Engine.ctx e
    | None -> Alcotest.fail "no engine"
  in
  let done_by_all = ref 0 and kept = ref 0 in
  Massbft.Types.Entry_tbl.iter
    (fun _ (e : N.entry) ->
      if e.N.exec_count >= c.N.ng then begin
        incr done_by_all;
        if e.N.txns <> [] || e.N.fb_txns <> [] || e.N.outcome <> None then
          incr kept
      end)
    c.N.entries;
  check_bool "entries executed by every leader" true (!done_by_all > 0);
  check_int "of those, entries still holding content" 0 !kept

(* ------------------------------------------------------------------ *)
(* Group removal: every leader switches at the boundary's position     *)
(* ------------------------------------------------------------------ *)

(* Seeds that fork the cross-group chain when the departing group's
   membership flips at the wrong point: on GeoBFT, a round sweep
   re-entered from the zero-CPU boundary's execution orders round r+1
   ahead of round r's remaining entries; on MassBFT, an orderer that
   flips its mask when the boundary executes has already ordered a
   backlog under the old mask. The drill runs the CLI's quick
   configuration (nationwide 3x7, 1% scale, 8 s). *)
let test_group_remove_no_fork (system, seed) () =
  let cfg = { (Config.default ~system ()) with Config.workload_scale = 0.01 } in
  let spec = Clusters.nationwide ~nodes_per_group:7 ~groups:3 () in
  let r =
    Chaos.drill ~duration:8.0 ~reconfig:"group-remove" ~shrink_failures:false
      ~spec ~cfg ~seed ()
  in
  let o = r.Chaos.outcome in
  List.iter
    (fun v ->
      Alcotest.fail (Massbft_faults.Invariants.violation_to_string v))
    o.Chaos.violations;
  check_int "one epoch boundary executed" 1 o.Chaos.epochs

(* ------------------------------------------------------------------ *)
(* Mid-transfer-crash drill: detect and shrink                         *)
(* ------------------------------------------------------------------ *)

(* GeoBFT has no global retransmission, so a whole-group outage landing
   while a join's state transfer is in flight loses that group's one-way
   copies for good: the liveness watchdog must flag the stall. The
   reconfiguration plan is the scenario's identity — every shrink rerun
   carries it unchanged — and ddmin must isolate the crash/recover pair
   from the benign noise around it. *)
let geobft_join_fails schedule =
  let cfg = small_cfg ~system:Config.Geobft () in
  let spec = small_spec () in
  let plan = [ { R.at = 2.0; cmd = R.Add_node 1 } ] in
  let o = Chaos.run_schedule ~duration:8.0 ~reconfig:plan ~spec ~cfg schedule in
  Chaos.failed o

let test_mid_transfer_crash_shrinks () =
  let noise =
    [
      {
        F.at = 1.0;
        fault =
          F.Link_delay
            { src_g = 0; dst_g = 1; add_s = 0.02; cls = F.Any; for_s = 0.5 };
      };
      { F.at = 1.5; fault = F.Wan_degrade { g = 2; factor = 0.5; for_s = 0.5 } };
      {
        F.at = 2.1;
        fault =
          F.Slow_cpu
            { addr = { Topology.g = 0; n = 1 }; factor = 3.0; for_s = 0.5 };
      };
    ]
  in
  let culprit =
    [
      { F.at = 2.3; fault = F.Crash_group 2 };
      { F.at = 3.3; fault = F.Recover_group 2 };
    ]
  in
  let schedule = F.sorted (culprit @ noise) in
  check_bool "the mid-transfer outage is detected" true
    (geobft_join_fails schedule);
  check_bool "the benign noise alone passes" false (geobft_join_fails noise);
  let shrunk = Chaos.shrink ~fails:geobft_join_fails schedule in
  check_string "shrinks to the bare crash/recover pair"
    (F.to_string culprit)
    (F.to_string shrunk)

(* ------------------------------------------------------------------ *)
(* CLI diagnostics                                                     *)
(* ------------------------------------------------------------------ *)

(* Malformed plan files and unknown system names must die with ONE line
   on stderr naming the file and the first bad token, and exit 2 —
   distinct from a run failure's exit 1 and cmdliner's 124. Runs from
   _build/default/test, next to the built CLI. *)
let cli = Filename.concat (Filename.concat ".." "bin") "massbft_cli.exe"

let run_cli args =
  let err = Filename.temp_file "massbft_cli" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s >/dev/null 2>%s" cli args err)
  in
  let ic = open_in err in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove err;
  (code, List.rev !lines)

let test_cli_exit2_diagnostics () =
  if not (Sys.file_exists cli) then
    Alcotest.skip ()
  else begin
    let dir = Filename.temp_file "massbft_plan" "" in
    Sys.remove dir;
    let write name text =
      let f = dir ^ name in
      let oc = open_out f in
      output_string oc text;
      close_out oc;
      f
    in
    let check_die what args ~mentions =
      let code, lines = run_cli args in
      check_int (what ^ ": exit 2") 2 code;
      check_int (what ^ ": one-line diagnostic") 1 (List.length lines);
      let line = List.hd lines in
      List.iter
        (fun tok ->
          let has s sub =
            let n = String.length s and m = String.length sub in
            let rec go i =
              i + m <= n && (String.sub s i m = sub || go (i + 1))
            in
            go 0
          in
          check_bool
            (Printf.sprintf "%s: diagnostic %S names %S" what line tok)
            true (has line tok))
        mentions
    in
    let bad_reconfig =
      write ".reconfig" "# plan\n@0.5 add-node g1\n@1 frobnicate g0\n"
    in
    check_die "malformed --reconfig" ("run --reconfig " ^ bad_reconfig)
      ~mentions:[ bad_reconfig; "line 3"; "frobnicate" ];
    let bad_faults = write ".faults" "@1 explode g0\n" in
    check_die "malformed --faults" ("run --faults " ^ bad_faults)
      ~mentions:[ bad_faults; "explode" ];
    let bad_adv = write ".adversary" "@1 gaslight g0/n0\n" in
    check_die "malformed --adversary" ("run --adversary " ^ bad_adv)
      ~mentions:[ bad_adv; "gaslight" ];
    check_die "unreadable file" "run --reconfig /nonexistent/x.reconfig"
      ~mentions:[ "/nonexistent/x.reconfig" ];
    check_die "unknown system" "run -s frobnix" ~mentions:[ "frobnix" ];
    (* An invalid plan (vs unparsable) gets the same treatment. *)
    let invalid = write "2.reconfig" "@1 remove-group g0\n" in
    check_die "invalid --reconfig" ("run --reconfig " ^ invalid)
      ~mentions:[ invalid ];
    (* Output destinations are checked before the run starts. *)
    List.iter
      (fun flag ->
        check_die ("unwritable " ^ flag)
          (Printf.sprintf
             "run -n 4 --scale 0.01 --warmup 0.2 -d 0.3 %s /nonexistent/out"
             flag)
          ~mentions:[ flag; "/nonexistent/out" ])
      [ "--trace"; "--metrics"; "--prof" ];
    check_die "unwritable bench --json" "bench --json /nonexistent/b.json"
      ~mentions:[ "--json"; "/nonexistent/b.json" ];
    check_die "unwritable drill --trace"
      "drill --seed 7 -s massbft --quick --trace /nonexistent/t.json"
      ~mentions:[ "--trace"; "/nonexistent/t.json" ];
    check_die "drill --trace with --seeds"
      "drill --seeds 2 --quick --trace /nonexistent/t.json"
      ~mentions:[ "--trace"; "--seeds" ];
    List.iter Sys.remove [ bad_reconfig; bad_faults; bad_adv; invalid ]
  end

let () =
  Alcotest.run "reconfig"
    [
      ( "dsl",
        [
          Alcotest.test_case "round-trip" `Quick test_round_trip;
          QCheck_alcotest.to_alcotest prop_round_trip;
          Alcotest.test_case "comments and parse errors" `Quick
            test_parse_comments_and_errors;
          Alcotest.test_case "validate" `Quick test_validate;
        ] );
      ( "generator",
        [
          Alcotest.test_case "seeded determinism over every kind" `Quick
            test_gen_reconfig_deterministic;
        ] );
      ( "no-op",
        [
          Alcotest.test_case "empty plan is byte-identical (7 systems)" `Slow
            test_empty_plan_is_byte_identical;
        ] );
      ( "join",
        [
          Alcotest.test_case "state-transfer receipt" `Slow test_join_receipt;
          Alcotest.test_case "executed content released" `Slow
            test_join_releases_executed_content;
        ] );
      ( "remove",
        List.map
          (fun ((system, seed) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%s seed %Ld: no fork" (Config.system_name system)
                 seed)
              `Slow (test_group_remove_no_fork case))
          [ (Config.Geobft, 3L); (Config.Massbft, 2L); (Config.Massbft, 7L) ] );
      ( "drill",
        [
          Alcotest.test_case "mid-transfer crash: detect and shrink" `Slow
            test_mid_transfer_crash_shrinks;
        ] );
      ( "cli",
        [
          Alcotest.test_case "exit-2 one-line diagnostics" `Quick
            test_cli_exit2_diagnostics;
        ] );
    ]
