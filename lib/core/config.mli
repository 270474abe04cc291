(** Experiment configuration: the system under test (MassBFT, the four
    competitors, and the two ablations — all expressed as settings of
    one engine, exactly as the paper implements them "under the same
    codebase"), the cost model, and client/batching parameters. *)

(** The systems of Table II plus the Figure 12 ablations. *)
type system =
  | Massbft  (** encoded bijective + per-group Raft + async VTS ordering *)
  | Baseline  (** leader one-way + per-group Raft + round ordering *)
  | Geobft  (** leader one-way + direct broadcast (no global consensus) *)
  | Steward  (** leader one-way + single Raft instance (one proposer) *)
  | Iss  (** Baseline + epoch-aligned round ordering *)
  | Br  (** bijective full copies + per-group Raft + round ordering *)
  | Ebr  (** encoded bijective + per-group Raft + round ordering *)

val system_name : system -> string
val all_systems : system list

(** The Table II axes, derived from the system. *)

type replication = Leader_oneway | Bijective_full | Encoded_bijective
type global_consensus = Per_group_raft | Single_raft | Direct_broadcast
type ordering = Sync_rounds | Epoch_rounds of int | Async_vts | Global_log

val replication_of : system -> replication
val global_of : system -> global_consensus

val batch_timeout_s : float  (** 0.020 in every paper experiment *)

val fetch_timeout_s : float  (** 1.0: the content-miss repair timer *)

val epoch_rounds : int
(** 5: ISS's epoch length in rounds (the paper's 0.1 s epoch over the
    20 ms batch timeout). *)

val ordering_of : system -> ordering
(** [Iss] orders in epochs of {!epoch_rounds} rounds. *)

(** CPU cost model, per DESIGN.md: real crypto/codec run in tests and
    benches; inside the simulator their cost is charged on the node's
    CPU so that compute contention shapes throughput the way it does on
    the paper's 8-core machines. *)
type cost_model = {
  sig_verify_s : float;  (** one ED25519 verify (dominates local PBFT) *)
  txn_exec_s : float;  (** executing one transaction *)
  encode_per_byte_s : float;  (** RS encode, per entry byte *)
  decode_per_byte_s : float;  (** rebuild, per entry byte *)
}

type t = {
  system : system;
  workload : Massbft_workload.Workload.kind;
  workload_scale : float;  (** keyspace scale for simulation speed *)
  max_batch : int;  (** transactions per entry *)
  pipeline : int;  (** entries in flight per group *)
  cost : cost_model;
  reorder : bool;  (** Aria deterministic reordering *)
  overlapped_vts : bool;
      (** Figure 7b's overlapped timestamp assignment (assign on the
          Raft propose, saving ~1 RTT) vs Figure 7a's serial two-phase
          variant — the ablation of §V-B *)
  election_timeout_s : float;
  seed : int64;
}

val default : ?system:system -> ?workload:Massbft_workload.Workload.kind -> unit -> t
(** Paper-default parameters: 20 ms batching, YCSB-A, deterministic
    seed, no faults. *)
