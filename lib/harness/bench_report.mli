(** Benchmark baseline reports ([BENCH_<date>.json]).

    [massbft bench --json] records two kinds of entries:

    - {e micro}: bechamel OLS estimates (nanoseconds per run) for the
      named simulator hot paths;
    - {e macro}: one full engine run per (system, group count) of
      {!row_plan} on YCSB-A over the nationwide cluster, pairing the
      simulated-side results (which are deterministic for a fixed
      seed) with the wall-clock cost of producing them.

    The schema lives here, in one place. Rendering raises
    [Invalid_argument] on any non-finite float — a NaN in a committed
    baseline would poison every later comparison. *)

type micro = { m_name : string; ns_per_run : float }

type macro = {
  system : string;  (** e.g. ["MassBFT"] *)
  workload : string;  (** e.g. ["YCSB-A"] *)
  groups : int;  (** nationwide groups of 7 nodes *)
  wall_s : float;  (** wall-clock seconds for the whole run *)
  sim_s : float;  (** simulated seconds driven (warmup + measurement) *)
  sim_s_per_wall_s : float;  (** simulator speed: [sim_s /. wall_s] *)
  committed_txns : int;  (** Aria-committed, cluster-wide, whole run *)
  committed_txns_per_wall_s : float;
  throughput_ktps : float;  (** simulated-side, measurement window *)
  mean_latency_ms : float;
  p99_latency_ms : float;
  commit_ratio : float;
  wan_mb : float;
}

val row_plan : quick:bool -> (Massbft.Config.system * int) list
(** The macro rows as (system, groups): every system at 3 groups, plus
    MassBFT at 5 groups in full mode. *)

val run_macro :
  ?quick:bool -> groups:int -> system:Massbft.Config.system -> unit -> macro
(** One engine run on YCSB-A over the nationwide cluster of [groups]
    groups of 7. Quick mode (2 s warmup + 5 s measurement at 1%
    workload scale) is the CI smoke setting; full mode uses the
    figure-harness windows (4 s + 12 s at full scale). Simulated-side
    fields are deterministic: two calls with the same parameters agree
    on everything except [wall_s] and the two [*_per_wall_s] rates
    derived from it. *)

val to_json :
  date:string ->
  mode:string ->
  micros:micro list ->
  macros:macro list ->
  unit ->
  string
(** The full report document. [date] is [YYYY-MM-DD]; [mode] is
    ["quick"] or ["full"]. Raises [Invalid_argument] if any float is
    not finite. *)

val schema_version : int
