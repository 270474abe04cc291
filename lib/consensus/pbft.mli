(** PBFT (Castro & Liskov) as a pure, transport-agnostic state machine.

    MassBFT and every competitor in the paper run PBFT for local
    consensus inside each data-center group (n >= 3f + 1 nodes). This
    module implements the three normal-case phases — pre-prepare,
    prepare, commit — plus a view change, and the prepare-skipping
    variant used for the global *accept* phase, where the consensus
    input is already certified by the sender group so followers need not
    agree on it again (paper §II-A, after Ziziphus).

    The state machine never touches a clock or a socket: the embedder
    supplies [send] and receives decisions via [decide], and decides
    when to call [start_view_change] (on its own timeout). This keeps
    the module deterministic and directly testable.

    Authentication model: messages are assumed to arrive over
    point-to-point authenticated channels (the simulator's transport
    plays this role; signature CPU costs are charged by the engine's
    cost model). Byzantine *content* faults are tolerated by quorum
    counting; a replica accepts only the first pre-prepare per (view,
    seq) and needs 2f + 1 matching votes to decide. Sequence numbers
    are non-negative; a message for a negative one, and a view-change
    pair naming one, are ignored.

    Cost per vote: a slot keeps one tally per digest voted for in its
    view (one in the normal case, more only under equivocation), each a
    {!Massbft_util.Bitset} of voter ids with a kept count, and slots sit
    in an int-keyed table with the identity hash. Recording a vote and
    testing a quorum allocate nothing once the slot exists. Only the
    accepted digest's count is ever read, so the order in which
    equivocated digests were seen does not matter.

    Cost per decided sequence number: one word. Deciding removes the
    slot, votes and all, and records the digest (shared with the
    message that carried it) in an array indexed by sequence number
    that grows by doubling. A decided sequence number never opens a
    slot again: late pre-prepares, prepares and commits for it, and
    new-view reproposals of it, are no-ops. *)

type msg =
  | Pre_prepare of { view : int; seq : int; digest : string }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string }
  | View_change of { new_view : int; prepared : (int * string) list }
      (** [prepared] carries this replica's prepared-but-undecided
          (seq, digest) pairs, which the new leader must re-propose. *)
  | New_view of { view : int; reproposals : (int * string) list }

type certificate = {
  cert_seq : int;
  cert_digest : string;
  cert_view : int;
  cert_signers : int list;
      (** the 2f+1 replicas whose commits decided, ascending *)
}

type config = {
  n : int;  (** replicas in the group; requires n >= 3f+1 with f >= 0 *)
  me : int;  (** this replica's id in [0, n) *)
  skip_prepare : bool;
      (** when true, replicas jump from pre-prepare straight to commit
          (the accept-phase variant). *)
}

type callbacks = {
  send : int -> msg -> unit;  (** unicast to a replica id (never [me]) *)
  decide : certificate -> unit;
      (** fired exactly once per decided sequence number, in whatever
          order decisions complete. *)
}

type t

val create : config -> callbacks -> t

val set_trace : t -> Massbft_trace.Trace.t -> gid:int -> unit
(** Attaches a trace sink plus the group id this replica lives in; the
    state machine then emits ["pbft"]-category instants on view-change
    broadcast and on entering a new view. Defaults to the disabled
    sink. *)

val leader_of_view : n:int -> view:int -> int
(** Round-robin: [view mod n]. *)

val view : t -> int
val is_leader : t -> bool
val decided : t -> int -> string option
(** The digest decided at a sequence number, if any (O(1)). *)

val propose : t -> seq:int -> digest:string -> unit
(** Leader-only: start consensus on [digest] at [seq]. Raises
    [Invalid_argument] if called on a non-leader or with a sequence
    number this leader already proposed in the current view. *)

val handle : t -> from:int -> msg -> unit
(** Feed an incoming message. Unknown views and duplicate votes are
    ignored; the state machine is safe under arbitrary message
    reordering and duplication. *)

val start_view_change : ?target:int -> t -> unit
(** Move to view [max (v+1) target] and broadcast a view-change
    message. The embedder calls this on a progress timeout; it passes a
    [target] past [v+1] to skip over views whose leaders it knows to be
    crashed (repeated timeouts walk the target forward until a live
    leader's view completes). *)

val in_view_change : t -> bool
(** True between a view-change broadcast and entering the new view;
    {!propose} raises while set. *)

val proposed : t -> seq:int -> bool
(** Whether this leader already proposed [seq] in the current view
    (including new-view reproposals) — {!propose} would raise. *)

val rejoin : t -> view:int -> unit
(** Post-recovery state transfer: adopt [view] if it is ahead of ours,
    so a replica that was down while its group changed views can vote
    again. Decided digests are kept; stale vote sets are voided. *)

val resize : t -> n:int -> unit
(** Live membership reconfiguration: adopt the group's new active size
    (quorum math follows). Every replica must resize at the same epoch
    boundary; note [leader_of_view] depends on [n], so the embedder
    re-aligns views across a resize (see Engine). *)

val size : t -> int
(** The current group size ([n] after any {!resize}). *)

val retained_votes : t -> int
(** Voter ids held across every open slot's prepare and commit tallies,
    kept as a running count (O(1)). A slot's tallies go when it decides
    or when a view change voids them. Memory censuses read this and the
    two counts below instead of walking the replica, whose callbacks
    reach the whole embedder. *)

val open_slots : t -> int
(** Undecided sequence numbers holding a slot (O(1)): the pipeline in
    flight plus any stranded by a crash, never a decided one. *)

val decided_words : t -> int
(** Words of the decided-digest array (O(1)): one per sequence number
    up to the highest decided, plus at most as many again of doubling
    slack. The digests themselves are shared with the messages. *)

val install_decided : t -> seq:int -> digest:string -> unit
(** State transfer onto a joining replica: record [digest] as decided at
    [seq] without re-running consensus or firing [decide]. First
    decision wins; an open slot at [seq] is closed and its votes
    dropped. Raises [Invalid_argument] on a negative [seq]. *)
