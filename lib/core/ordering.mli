(* Ordering stage: round-synchronous vs. epoch vs. global-log vs.
   asynchronous VTS ordering, matched on the leader's ordering state. *)

open Node_ctx

val round_ready : leader -> Types.entry_id -> bool
(** The entry was marked ready for its round, or its round has closed
    (round orderings; [false] otherwise). *)

val mark_round_ready : t -> leader -> Types.entry_id -> unit
(** Record that the entry is ready for its round and close every
    now-complete round in sequence (round-based orderings; also the
    commitment path of GeoBFT's direct broadcast). *)

val on_commit : t -> leader -> Types.entry_id -> unit
(** An entry committed globally: mark its round (round families),
    execute it in commit order (Steward's global log), or advance the
    clock of our own stamps (VTS, which waits for timestamps). *)

(* The Ts lane: which entries get stamped, with what clock, and what a
   committed Ts record means. The Raft adapter calls in at its
   deliver/commit/role-change hooks with the leader's Raft state. *)

val assign_ts : leader -> raft_state -> Types.entry_id -> unit
(** Stamp a remote entry with our clock through our own instance
    (overlapped assignment, Fig. 7b); no-op unless VTS ordering is
    active and we lead our instance. Stamping drops the entry's accept
    notes. *)

val stamped : leader -> raft_state -> Types.entry_id -> bool
(** The entry is stamped, or has a committed Ts record, in the leader's
    own instance. *)

val stamp_led_instances : raft_state -> Types.entry_id -> unit
(** Catch-all: stamp the entry in every instance this leader currently
    leads (takeovers run crashed groups' frozen clocks, §V-C). *)

val stamp_committed_unexec : leader -> raft_state -> int -> unit
(** On gaining an instance's leadership: stamp every
    committed-but-unexecuted entry still lacking its element. *)

val on_ts_commit :
  leader -> raft_state -> int -> eid:Types.entry_id -> ts:int -> unit
(** A Ts record committed: mark it and feed the Orderer (first commit
    wins). *)

val observe : Node_ctx.t -> Massbft_obs.Sampler.t -> unit
(** Register the round-barrier gauges (round orderings only). Part of
    [Engine.set_obs]. *)
