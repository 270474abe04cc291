type system = Massbft | Baseline | Geobft | Steward | Iss | Br | Ebr

let system_name = function
  | Massbft -> "MassBFT"
  | Baseline -> "Baseline"
  | Geobft -> "GeoBFT"
  | Steward -> "Steward"
  | Iss -> "ISS"
  | Br -> "BR"
  | Ebr -> "EBR"

let all_systems = [ Massbft; Baseline; Geobft; Steward; Iss; Br; Ebr ]

type replication = Leader_oneway | Bijective_full | Encoded_bijective
type global_consensus = Per_group_raft | Single_raft | Direct_broadcast
type ordering = Sync_rounds | Epoch_rounds | Async_vts | Global_log

let replication_of = function
  | Massbft | Ebr -> Encoded_bijective
  | Br -> Bijective_full
  | Baseline | Geobft | Steward | Iss -> Leader_oneway

let global_of = function
  | Massbft | Baseline | Iss | Br | Ebr -> Per_group_raft
  | Steward -> Single_raft
  | Geobft -> Direct_broadcast

let batch_timeout_s = 0.020
let fetch_timeout_s = 1.0
let epoch_rounds = 5

let ordering_of = function
  | Massbft -> Async_vts
  | Baseline | Geobft | Br | Ebr -> Sync_rounds
  | Iss -> Epoch_rounds
  | Steward -> Global_log

type cost_model = {
  sig_verify_s : float;
  txn_exec_s : float;
  encode_per_byte_s : float;
  decode_per_byte_s : float;
}

let default_cost =
  {
    (* Calibrated effective per-transaction CPU budgets for the paper's
       8-core ecs.c6.2xlarge nodes. sig_verify covers the ED25519
       verify plus the hashing/deserialization that accompanies it in
       the real pipeline; together with execution it bounds a group's
       compute ceiling (the Figure 13a plateau / Figure 8d TPC-C
       bottleneck the paper attributes to signature verification;
       EXPERIMENTS.md discusses the calibration). Coding costs
       are sized so a ~100 KB entry's encode+rebuild lands near the
       reported 2.3 ms (Figure 11). *)
    sig_verify_s = 100e-6;
    txn_exec_s = 25e-6;
    encode_per_byte_s = 12e-9;
    decode_per_byte_s = 11e-9;
  }

type t = {
  system : system;
  workload : Massbft_workload.Workload.kind;
  workload_scale : float;
  max_batch : int;
  pipeline : int;
  cost : cost_model;
  reorder : bool;
  overlapped_vts : bool;
  election_timeout_s : float;
  seed : int64;
}

let default ?(system = Massbft) ?(workload = Massbft_workload.Workload.Ycsb_a) () =
  {
    system;
    workload;
    workload_scale = 0.01;
    max_batch = 500;
    pipeline = 8;
    cost = default_cost;
    reorder = true;
    overlapped_vts = true;
    election_timeout_s = 1.5;
    seed = 42L;
  }
