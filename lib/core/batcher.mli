(* Batching stage: client load + batch timer + pipeline window. *)

val try_batch : Node_ctx.t -> Node_ctx.leader -> unit
(** Form the next batch if the timer has fired, the pipeline window has
    room, and the ordering axis admits the next sequence number.
    Stages call this whenever one of those conditions may have just
    become true (commit, round close, execution). *)

val start : Node_ctx.t -> unit
(** Arm the per-leader batch timers and form the first batches.
    Called once from [Engine.start]. *)

val observe : Node_ctx.t -> Massbft_obs.Sampler.t -> unit
(** Register the admission-side gauges (pipeline in-flight, retry
    queue) per leader. Part of [Engine.set_obs]. *)
