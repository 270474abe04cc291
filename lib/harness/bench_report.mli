(** Benchmark baseline reports ([BENCH_<date>.json]).

    [massbft bench --json] records three kinds of entries:

    - {e micro}: bechamel OLS estimates (nanoseconds per run) for the
      named substrate hot paths;
    - {e macro}: one full engine run per system on YCSB-A over the
      nationwide cluster, pairing the simulated-side results (which are
      deterministic for a fixed seed) with the wall-clock cost of
      producing them;
    - {e scaling}: the MassBFT macro run repeated per group count.

    The JSON is rendered here, by hand, so the schema lives in one
    place and tests can validate it without a JSON parser dependency.
    Rendering raises [Invalid_argument] on any non-finite float — a
    NaN in a committed baseline would poison every later comparison. *)

type micro = { m_name : string; ns_per_run : float }

type macro = {
  system : string;  (** e.g. ["MassBFT"] *)
  workload : string;  (** e.g. ["YCSB-A"] *)
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

val run_macro :
  ?quick:bool -> ?groups:int -> system:Massbft.Config.system -> unit -> macro
(** One engine run on YCSB-A over the nationwide cluster ([groups]
    groups of 7, default 3). Quick mode (1 s warmup + 3 s measurement
    at 1% workload scale) is the CI smoke setting; full mode uses the
    figure-harness windows (4 s + 12 s at full scale). Simulated-side fields are deterministic:
    two calls with the same parameters agree on everything except
    [wall_s] and the two [*_per_wall_s] rates derived from it. *)

type scaling = {
  sc_groups : int;  (** cluster group count *)
  sc_wall_s : float;
  sc_sim_s : float;
  sc_sim_s_per_wall_s : float;
  sc_committed_txns : int;
}

val run_scaling :
  ?quick:bool ->
  ?groups_list:int list ->
  ?on_row:(scaling -> unit) ->
  unit ->
  scaling list
(** The scheduler scaling table: one MassBFT {!run_macro} per group
    count. [on_row] fires after each row, for progress output. Default
    groups: 3 in quick mode, 3 and 5 in full mode. *)

val to_json :
  date:string ->
  mode:string ->
  ?scaling:scaling list ->
  micros:micro list ->
  macros:macro list ->
  unit ->
  string
(** The full report document. [date] is [YYYY-MM-DD]; [mode] is
    ["quick"] or ["full"]. Raises [Invalid_argument] if any float is
    not finite. *)

val schema_version : int
