(** Deterministic asynchronous log ordering — Algorithm 2 of the paper.

    The orderer consumes the per-group timestamp streams (each group's
    committed [Ts] records arrive in that group's Raft log order, hence
    with non-decreasing values) and emits entry ids in the unique global
    execution order of Lemma V.4. Inference over the not-yet-received
    elements (using each stream's last value as a lower bound) lets it
    release entries before their VTSs are complete, which is what frees
    fast groups from waiting for slow ones.

    All instances fed the same per-group streams emit the same sequence,
    regardless of how the streams interleave — the agreement half of
    Theorem V.6, which the property tests check over randomized
    interleavings. *)

type t

val create : ng:int -> on_execute:(Types.entry_id -> unit) -> t
(** [on_execute] fires in execution order; the embedder runs the actual
    state machine (and may have to await the entry's content first, but
    must preserve this order). *)

val on_timestamp : t -> from_gid:int -> eid:Types.entry_id -> ts:int -> unit
(** Group [from_gid] assigned clock value [ts] to entry [eid]
    ([eid.gid <> from_gid]; the proposer's own element is the implicit
    [seq]). Calls for a given [from_gid] must arrive with non-decreasing
    [ts] — the commit order of that group's Raft instance guarantees
    this. Raises [Invalid_argument] on a decreasing stream or on
    conflicting re-assignment. *)

val executed_count : t -> int

val head_of : t -> int -> Types.entry_id
(** The next-to-execute entry of group [i] ([heads] in Algorithm 2). *)

val head_vts : t -> int -> Vts.t
(** Its current (partially inferred) VTS — for diagnostics and tests. *)

(** {1 Membership reconfiguration (massbft_reconfig)} *)

val set_active : t -> int -> bool -> unit
(** Flip group [i]'s participation in the order: inactive heads are
    neither candidates nor constraints. Re-runs the drain loop. Every
    orderer instance must flip at the same position in the order: the
    controller flips inside [on_execute] of the epoch-boundary entry,
    i.e. when this orderer emits it, before it emits anything after. *)

val copy_state : src:t -> into:t -> unit
(** State transfer onto a joining leader's fresh orderer: adopt [src]'s
    exact ordering state (pending VTSs, heads, stream bounds, executed
    count, mask), so identical subsequent streams yield the identical
    execution suffix. *)
