(** Hash tables keyed by int with the identity hash, for the tables the
    protocol state machines touch once per message (PBFT slots, Raft
    log, pending appends and ack sets, accept rounds). Iteration order
    differs from a polymorphic [Hashtbl]'s; no caller depends on it. *)

include Hashtbl.S with type key = int
