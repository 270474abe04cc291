(** The bench-regression gate: compares a fresh micro-benchmark run
    against a committed [BENCH_<date>.json] baseline and fails on
    step-change regressions.

    The gate compares {e micro} rows only (bechamel ns/run): macro wall
    times swing with workload scale and host load, while the micro
    estimates are stable enough for a wide per-benchmark tolerance
    (default ±25%) to separate refactor damage from noise. *)

type baseline = {
  b_path : string;
  b_date : string;
  b_mode : string;  (** ["quick"] or ["full"] *)
  b_schema : int;
  b_micros : (string * float) list;  (** name → ns_per_run *)
}

val load_baseline : string -> baseline
(** Raises [Failure] with a readable message on unreadable files,
    malformed JSON, or documents without micro rows. Any schema version
    with a [micro] array is accepted (v1–v3 all qualify). *)

type status =
  | Ok  (** within tolerance *)
  | Regression  (** current > baseline × (1 + tolerance) *)
  | Improvement  (** current < baseline × (1 − tolerance); informational *)
  | New  (** benchmark exists only in the current run; informational *)
  | Missing  (** benchmark exists only in the baseline; fails the gate *)

type verdict = {
  v_name : string;
  v_baseline_ns : float;  (** [nan] for [New] *)
  v_current_ns : float;  (** [nan] for [Missing] *)
  v_ratio : float;  (** current / baseline; [nan] when either absent *)
  v_status : status;
}

type result = {
  r_tolerance : float;
  r_verdicts : verdict list;  (** baseline order, then new benchmarks *)
  r_regressions : int;
  r_missing : int;
}

val default_tolerance : float
(** 0.25. *)

val compare_micros :
  ?tolerance:float ->
  baseline:baseline ->
  current:(string * float) list ->
  unit ->
  result
(** [current] pairs benchmark names with fresh ns/run estimates.
    Raises [Invalid_argument] on a non-positive tolerance. *)

val passed : result -> bool
(** No regressions and no missing benchmarks — a benchmark silently
    dropped from the suite would otherwise be the easiest way to dodge
    the gate. *)

val render : baseline:baseline -> result -> string
(** Per-benchmark table plus a PASS/FAIL summary line. *)
