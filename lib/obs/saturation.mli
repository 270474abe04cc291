(** Bottleneck attribution: post-processes a {!Sampler}'s recorded rows
    to name the binding resource of a run — machine-checkable
    validation of the paper's saturation claims (leader WAN uplink for
    the Baseline, Figures 1b/13a; signature-verification CPU for large
    MassBFT groups, Figure 13a). *)

type verdict = {
  resource : string;  (** e.g. ["g0/n0 wan_up"] or ["g1/n3 cpu"] *)
  mean : float;  (** mean busy fraction over the recorded windows *)
  peak : float;  (** highest single-window busy fraction *)
  saturated_share : float;
      (** fraction of windows with busy fraction [>= 0.95] *)
  windows : int;  (** number of recorded windows *)
}

val binding : Sampler.t -> verdict option
(** The resource that saturated for the largest share of the run: the
    first of one verdict per resource-tagged column, ranked by saturated
    share, then mean, then name — deterministic. [None] when no rows
    were recorded. *)

val report : Sampler.t -> string
(** Human-readable summary: the binding resource in the
    ["g0/n0 wan_up >=95% busy for 87% of the measurement window"]
    style, then a table of the 10 most binding resources. *)
