(** Online metric accumulators for the experiment harness: means,
    percentiles, time-bucketed rates, and byte counters. *)

(** Streaming summary of a scalar sample set (latencies, sizes). Keeps
    every sample to give exact percentiles; simulations produce at most
    a few million samples per run. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0, 100], nearest-rank. Raises
      [Invalid_argument] when [p] is out of range or the summary is
      empty. *)

  val percentile_opt : t -> float -> float option
  (** [None] when empty; still raises on [p] outside [0, 100]. *)
end

(** Events bucketed by time, for throughput-over-time series such as the
    paper's Figure 15. *)
module Timeseries : sig
  type t

  val create : bucket:float -> t
  (** [create ~bucket] groups events into [bucket]-second windows. *)

  val add : t -> time:float -> float -> unit
  (** [add t ~time v] accrues [v] (e.g. 1 per committed transaction, or
      a latency sample) into [time]'s bucket. *)

  val rate_series : t -> (float * float) list
  (** [(bucket_start, sum / bucket_width)] pairs in time order — i.e.
      a per-second rate when values are counts. Every bucket between
      the first and last observation is present: buckets with no
      observations report an explicit [0.0] (so outages appear as
      zero-rate samples, not as gaps). Empty series stay empty. *)

  val mean_series : t -> (float * float) list
  (** [(bucket_start, sum / samples)] pairs — per-bucket means, with
      the same zero-filling as {!rate_series} (an observation-free
      bucket reports mean [0.0]). *)
end

(** Monotonic counters, used for WAN/LAN byte accounting (Figure 10). *)
module Counter : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val get : t -> int
end
