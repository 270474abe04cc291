(** Raft log replication specialized to MassBFT's global layer.

    Each *group* participates as one logical replica ([ng >= 2fg + 1]
    groups, tolerating [fg] crashed groups — groups are crash-only in
    the paper's threat model because local PBFT masks Byzantine nodes
    inside them). MassBFT runs [ng] parallel instances of this state
    machine; instance [i] is normally led by group [i], which proposes
    its entries through it. The engine maps the logical sends onto
    physical leader-node messages.

    The normal-case phases match the paper's Figure 3: {e propose}
    ([Append]), {e accept} ([Append_ack]) and a {e commit} broadcast
    ([Commit_note]); plus leader election for crashed-group takeover
    (paper §V-C, "Crashed Groups").

    Two embedder hooks make the MassBFT-specific behaviours possible
    without leaking them into the consensus core:
    - [on_deliver] fires the moment a follower receives an entry via
      [Append] — the hook used for overlapped vector-timestamp
      assignment (Figure 7b);
    - [ack_guard] lets the embedder delay the accept until the group
      genuinely holds the entry (Lemma V.1's atomicity argument) and
      until the local skip-prepare PBFT round on the accept decision has
      finished.

    Simplification, documented: payloads are protected by PBFT
    certificates, so two different entries can never occupy the same
    index (the paper relies on the same argument to run CFT consensus
    over Byzantine groups); log-conflict truncation is therefore
    omitted.

    Cost per message: the log, the out-of-order buffer and the leader's
    per-index ack sets are int-keyed tables with the identity hash; an
    ack set, the candidate's election votes and the follower's record
    of indices it already acked are {!Massbft_util.Bitset}s, so an ack
    allocates nothing once its index has a set, and the acked record
    costs one bit per log index. *)

type role = Leader | Follower | Candidate

type 'p msg =
  | Append of { term : int; index : int; entry : 'p }
  | Append_ack of { term : int; index : int }
  | Commit_note of { term : int; index : int }
  | Request_vote of { term : int; last_index : int }
  | Vote of { term : int; granted : bool }
  | Probe of { term : int }
      (** a new leader asking followers for their log positions *)
  | Probe_reply of { term : int; last_index : int; commit_index : int }
  | Timeout_now of { term : int }
      (** leadership transfer: the recipient should campaign now *)
  | Replace of { term : int; index : int; entry : 'p }
      (** unconditional same-term overwrite of an uncommitted index (see
          {!replace_uncommitted}) *)

type 'p callbacks = {
  send : int -> 'p msg -> unit;  (** unicast to a group id (never [me]) *)
  on_deliver : index:int -> 'p -> unit;
      (** an entry became locally known, in log order, before commit *)
  on_commit : index:int -> 'p -> unit;  (** committed, in log order *)
  on_role : role -> term:int -> unit;
  ack_guard : index:int -> 'p -> (unit -> unit) -> unit;
      (** [ack_guard ~index entry k] must eventually call [k] to release
          the accept for [index]. Default embedding: [k ()] directly. *)
}

type 'p t

val create : ?initial_leader:int -> ng:int -> me:int -> 'p callbacks -> 'p t
(** [initial_leader] encodes the deployment convention that instance [i]
    starts out led by group [i]: the replica boots in term 1 with its
    vote already cast for that group (leadership without an election
    round). *)

val set_trace : 'p t -> Massbft_trace.Trace.t -> inst:int -> unit
(** Attaches a trace sink plus the global-instance id this replica
    belongs to; the state machine then emits ["raft"]-category instants
    on elections and role changes. Defaults to the disabled sink. *)

val acks_for : 'p t -> int -> int list
(** Accept voters recorded for a log index (leader-side diagnostic),
    ascending. Empty at or below the commit index: committing an index
    drops its ack set, and a later ack for it is not recorded. *)

val retained_acks : 'p t -> int
(** Ack sets currently held (O(1)). Memory censuses read this instead
    of walking the replica, whose callbacks reach the whole embedder. *)

val log_length : 'p t -> int
(** Log entries held, contiguous and out-of-order ones together (O(1)).
    The log is never truncated, so this grows with every entry the
    instance carries. *)

val role : 'p t -> role
val term : 'p t -> int
val last_index : 'p t -> int
val commit_index : 'p t -> int
val entry_at : 'p t -> int -> 'p option
(** Entries are 1-indexed, matching Raft convention. *)

val propose : 'p t -> 'p -> int
(** Leader-only; returns the assigned index. Raises [Invalid_argument]
    on a non-leader. *)

val handle : 'p t -> from:int -> 'p msg -> unit

val replace_uncommitted : 'p t -> index:int -> 'p -> unit
(** Leader-only: overwrite an entry of the leader's own uncommitted
    suffix (commit_idx < index <= last_idx) with a new payload in the
    current term, re-broadcasting it; followers' stale copies are
    replaced through the term-conflict rule. MassBFT uses this to no-op
    a dead group's in-flight entries whose content is unrecoverable —
    such entries can never have committed anywhere (their accept quorum
    was content-gated), so the overwrite cannot contradict any live
    node. Raises [Invalid_argument] outside the suffix. *)

val heartbeat : 'p t -> unit
(** Leader-only anti-entropy tick: broadcast a [Probe]. Followers answer
    with their log positions and the leader ships whatever they miss —
    this doubles as the liveness heartbeat and as catch-up for lagging
    or recovered groups. No-op on non-leaders. *)

val start_election : 'p t -> unit
(** Embedder-driven election timeout: become candidate in term + 1. In a
    single-group universe ([ng = 1]) this wins immediately. *)
