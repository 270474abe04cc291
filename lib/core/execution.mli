(* Execution stage: ordered execution queue, Aria + ledger, metrics. *)

open Node_ctx

val enqueue : t -> leader -> Types.entry_id -> unit
(** Place an entry into the leader's execution queue in final order and
    pump. Placing stamps [ordered_at] for the group's own entries and
    fires the [reconfig_order] seam on an epoch-boundary entry; a
    leader whose group is not a member drops the entry. Every ordering
    strategy reaches the queue through here. *)

val pump : t -> leader -> unit
(** Execute queue-head entries whose content is held; arrange a fetch
    for a head that stays missing past the fetch timeout. *)

val observe : Node_ctx.t -> Massbft_obs.Sampler.t -> unit
(** Register the execution-pump gauges. Part of [Engine.set_obs]. *)
