(* Tests for the bench-regression gate: the JSON reader it is built on
   (round-tripping the repo's own hand-rendered documents), the
   comparison semantics (tolerance band, regressions, missing and new
   benchmarks), and the fixture contract CI relies on — an unchanged
   baseline passes, an injected 20% slowdown fails. *)

module Bench_check = Massbft_harness.Bench_check
module Bench_report = Massbft_harness.Bench_report
module Json = Massbft_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* JSON reader                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_parse_basics () =
  (match Json.parse {| {"a": 1, "b": [true, false, null], "c": "x\ny"} |} with
  | Json.Obj [ ("a", Json.Num 1.0); ("b", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]); ("c", Json.Str "x\ny") ] ->
      ()
  | _ -> Alcotest.fail "unexpected parse");
  (match Json.parse {| -12.5e2 |} with
  | Json.Num v -> Alcotest.(check (float 1e-9)) "sci notation" (-1250.0) v
  | _ -> Alcotest.fail "number");
  (match Json.parse {| "esc \" \\ A" |} with
  | Json.Str s -> Alcotest.(check string) "escapes" "esc \" \\ A" s
  | _ -> Alcotest.fail "string");
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted malformed " ^ bad))
    [ "{"; "[1,]"; "{\"a\" 1}"; "1 2"; "\"unterminated"; "tru" ]

let test_json_reads_bench_report () =
  (* Dogfood: the gate must read exactly what Bench_report writes. *)
  let doc =
    Bench_report.to_json ~date:"2026-08-09" ~mode:"quick"
      ~micros:
        [
          { Bench_report.m_name = "a/one"; ns_per_run = 100.0 };
          { Bench_report.m_name = "b/two"; ns_per_run = 2.5e6 };
        ]
      ~macros:[] ()
  in
  let j = Json.parse doc in
  (match Option.bind (Json.member "schema_version" j) Json.to_float with
  | Some v -> check_int "schema" Bench_report.schema_version (int_of_float v)
  | None -> Alcotest.fail "schema_version missing");
  match Option.bind (Json.member "micro" j) Json.to_list with
  | Some [ m1; _ ] -> (
      match Option.bind (Json.member "name" m1) Json.to_string with
      | Some "a/one" -> ()
      | _ -> Alcotest.fail "first micro name")
  | _ -> Alcotest.fail "micro array"

(* ------------------------------------------------------------------ *)
(* Baseline fixtures                                                   *)
(* ------------------------------------------------------------------ *)

let fixture_micros =
  [
    ("massbft sha256/4KiB", 76000.0);
    ("massbft sim/100k-events", 1.14e7);
    ("massbft rs/gf8-encode-13+15-100KB", 2.5e6);
  ]

let write_fixture_baseline ?(scale_first = 1.0) () =
  let micros =
    List.mapi
      (fun i (name, ns) ->
        {
          Bench_report.m_name = name;
          ns_per_run = (if i = 0 then ns *. scale_first else ns);
        })
      fixture_micros
  in
  let doc =
    Bench_report.to_json ~date:"2026-08-09" ~mode:"full" ~micros ~macros:[] ()
  in
  let file = Filename.temp_file "bench_baseline" ".json" in
  let oc = open_out file in
  output_string oc doc;
  close_out oc;
  file

let with_fixture ?scale_first f =
  let file = write_fixture_baseline ?scale_first () in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let test_unchanged_baseline_passes () =
  with_fixture (fun file ->
      let baseline = Bench_check.load_baseline file in
      check_int "micros loaded" (List.length fixture_micros)
        (List.length baseline.Bench_check.b_micros);
      let result =
        Bench_check.compare_micros ~baseline ~current:fixture_micros ()
      in
      check_bool "unchanged passes" true (Bench_check.passed result);
      check_int "no regressions" 0 result.Bench_check.r_regressions;
      check_bool "all ok" true
        (List.for_all
           (fun v -> v.Bench_check.v_status = Bench_check.Ok)
           result.Bench_check.r_verdicts))

(* The CI fixture contract: a synthetic 20% slowdown injected into the
   baseline (i.e. current = 1.2x baseline) must fail the gate at the
   10% tolerance CI drives the fixture check with, and a >25% slowdown
   must fail even at the default +-25%. *)
let test_injected_slowdown_fails () =
  with_fixture (fun file ->
      let baseline = Bench_check.load_baseline file in
      let slowed factor =
        List.map (fun (n, ns) -> (n, ns *. factor)) fixture_micros
      in
      (* 20% slower, 10% tolerance: gate fails. *)
      let r20 =
        Bench_check.compare_micros ~tolerance:0.10 ~baseline
          ~current:(slowed 1.20) ()
      in
      check_bool "20% slowdown fails at 10% tol" false (Bench_check.passed r20);
      check_int "every benchmark flagged" (List.length fixture_micros)
        r20.Bench_check.r_regressions;
      (* 20% slower is within the default +-25% band. *)
      let r20d =
        Bench_check.compare_micros ~baseline ~current:(slowed 1.20) ()
      in
      check_bool "20% within default tol" true (Bench_check.passed r20d);
      (* 30% slower fails even at the default tolerance. *)
      let r30 =
        Bench_check.compare_micros ~baseline ~current:(slowed 1.30) ()
      in
      check_bool "30% slowdown fails at default tol" false
        (Bench_check.passed r30);
      (* Speed-ups never fail, but are reported. *)
      let rfast =
        Bench_check.compare_micros ~baseline ~current:(slowed 0.5) ()
      in
      check_bool "speedup passes" true (Bench_check.passed rfast);
      check_bool "speedup reported" true
        (List.for_all
           (fun v -> v.Bench_check.v_status = Bench_check.Improvement)
           rfast.Bench_check.r_verdicts))

let test_missing_and_new_benchmarks () =
  with_fixture (fun file ->
      let baseline = Bench_check.load_baseline file in
      (* Dropping a benchmark from the suite fails the gate. *)
      let r =
        Bench_check.compare_micros ~baseline
          ~current:(List.tl fixture_micros) ()
      in
      check_bool "missing fails" false (Bench_check.passed r);
      check_int "one missing" 1 r.Bench_check.r_missing;
      (* A benchmark the baseline has never seen is informational. *)
      let r2 =
        Bench_check.compare_micros ~baseline
          ~current:(("massbft new/bench", 1.0) :: fixture_micros)
          ()
      in
      check_bool "new passes" true (Bench_check.passed r2);
      check_bool "new reported last" true
        (match List.rev r2.Bench_check.r_verdicts with
        | v :: _ -> v.Bench_check.v_status = Bench_check.New
        | [] -> false))

let test_render_verdict_table () =
  with_fixture (fun file ->
      let baseline = Bench_check.load_baseline file in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        nn = 0 || go 0
      in
      let slowed =
        List.map (fun (n, ns) -> (n, ns *. 1.5)) fixture_micros
      in
      let r = Bench_check.compare_micros ~baseline ~current:slowed () in
      let text = Bench_check.render ~baseline r in
      check_bool "FAIL line" true (contains text "bench check: FAIL");
      check_bool "REGRESSION rows" true (contains text "REGRESSION");
      let ok = Bench_check.compare_micros ~baseline ~current:fixture_micros () in
      check_bool "PASS line" true
        (contains (Bench_check.render ~baseline ok) "bench check: PASS"))

let test_bad_baselines_rejected () =
  List.iter
    (fun (label, content) ->
      let file = Filename.temp_file "bench_bad" ".json" in
      let oc = open_out file in
      output_string oc content;
      close_out oc;
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          match Bench_check.load_baseline file with
          | exception Failure _ -> ()
          | _ -> Alcotest.fail ("accepted " ^ label)))
    [
      ("malformed json", "{nope");
      ("no schema", "{\"micro\": [{\"name\": \"x\", \"ns_per_run\": 1}]}");
      ("no micros", "{\"schema_version\": 3, \"micro\": []}");
      ("micro not array", "{\"schema_version\": 3, \"micro\": 4}");
    ];
  match Bench_check.load_baseline "/nonexistent/baseline.json" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "accepted missing file"

let test_committed_baseline_loads () =
  (* The newest committed baseline must satisfy the gate's reader —
     CI picks it the same way (`ls BENCH_*.json | sort | tail -1`). *)
  let file =
    Sys.readdir ".."
    |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.rev
    |> function
    | [] -> "../BENCH_none.json"
    | newest :: _ -> "../" ^ newest
  in
  if Sys.file_exists file then begin
    let b = Bench_check.load_baseline file in
    check_bool "has the full micro suite" true
      (List.length b.Bench_check.b_micros >= 21);
    let r =
      Bench_check.compare_micros ~baseline:b ~current:b.Bench_check.b_micros ()
    in
    check_bool "self-comparison passes" true (Bench_check.passed r)
  end

let () =
  Alcotest.run "bench_check"
    [
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "reads bench_report output" `Quick
            test_json_reads_bench_report;
        ] );
      ( "gate",
        [
          Alcotest.test_case "unchanged baseline passes" `Quick
            test_unchanged_baseline_passes;
          Alcotest.test_case "injected slowdown fails" `Quick
            test_injected_slowdown_fails;
          Alcotest.test_case "missing and new benchmarks" `Quick
            test_missing_and_new_benchmarks;
          Alcotest.test_case "render verdict table" `Quick
            test_render_verdict_table;
          Alcotest.test_case "bad baselines rejected" `Quick
            test_bad_baselines_rejected;
          Alcotest.test_case "committed baseline loads" `Quick
            test_committed_baseline_loads;
        ] );
    ]
