(** The geo-distributed cluster fabric (paper §III-A): groups of nodes,
    one per data center, with fast LAN inside a group and per-node
    bandwidth-limited WAN between groups.

    [send] is the single transport primitive used by every protocol in
    this repository. A message crossing groups serializes through the
    sender's WAN uplink, propagates for half the inter-group RTT, then
    serializes through the receiver's WAN downlink; intra-group messages
    use the LAN interfaces. Crashed endpoints silently drop traffic
    (Byzantine behaviours are modeled in the protocol layer — equivocation
    and tampering are content decisions, not transport ones). *)

type addr = { g : int; n : int }
(** Node [n] of group [g]; both zero-based. [N_{i,j}] in the paper is
    [{ g = i; n = j }]. *)

val addr_to_string : addr -> string
val addr_equal : addr -> addr -> bool

type spec = {
  group_sizes : int array;  (** nodes per group; length = number of groups *)
  wan_bps : float;  (** default per-node WAN bandwidth, bits/s *)
  lan_bps : float;  (** per-node LAN bandwidth, bits/s *)
  rtt : int -> int -> float;
      (** [rtt g1 g2] in seconds, for [g1 <> g2]; must be symmetric *)
  lan_rtt : float;  (** intra-group round-trip, seconds *)
  cores : int;  (** CPU cores per node *)
}

val min_wan_one_way : spec -> float
(** Half the minimum inter-group RTT — the shortest time in which one
    group can affect another; the harness uses it as the profiling
    slice stride ({!Sim.lookahead}). [infinity] for a single-group
    spec. *)

type t

val create : Sim.t -> spec -> t
(** Builds the cluster on [sim]'s shards: group [g]'s NICs and CPU
    account their events to shard [g mod n_shards]. *)

val sim : t -> Sim.t

val shard_of : t -> int -> Sim.t
(** [shard_of t g] is the sim shard that owns group [g]'s events. *)

val n_groups : t -> int
val group_size : t -> int -> int
val nodes : t -> addr list
val group_nodes : t -> int -> addr list

val valid_addr : t -> addr -> bool

val send :
  ?bulk:bool -> t -> src:addr -> dst:addr -> bytes:int -> (unit -> unit) -> unit
(** [send t ~src ~dst ~bytes k] moves a [bytes]-sized message and runs
    [k] on delivery. The message is dropped (and [k] never runs) if
    [src] is crashed now or [dst] is crashed at delivery time. Sending
    to self delivers after the local processing latency with no NIC
    cost. [bulk] selects the NIC service class (see {!Nic.transmit}):
    entry payloads are bulk, consensus control traffic is not. *)

val set_trace : t -> Massbft_trace.Trace.t -> unit
(** Attaches a trace sink to every NIC and CPU in the cluster (see
    {!Nic.set_trace} and {!Cpu.set_trace}) and to the fabric itself,
    which then emits ["net"] propagation spans per inter-node message
    and ["topo"] instants on crash/recover. *)

val crash : t -> addr -> unit
val recover : t -> addr -> unit
val crash_group : t -> int -> unit
val recover_group : t -> int -> unit
val alive : t -> addr -> bool

val cpu : t -> addr -> Cpu.t
(** The node's compute queue, for the protocol's cost model. *)

val cores : t -> int
(** CPU cores per node (uniform across the cluster). *)

val set_wan_bandwidth : t -> addr -> float -> unit
(** Reconfigures one node's WAN up and down links (Figure 14). *)

val set_lan_bandwidth : t -> addr -> float -> unit
(** Reconfigures one node's LAN up and down links (degradation
    experiments; takes effect for subsequent transmissions, like
    {!Nic.set_bandwidth}). *)

(** {1 Link fault injection}

    The chaos layer interposes on {!send} through a single optional
    hook, consulted once per non-loopback message before the sender's
    NIC. With no hook installed (the default) the send path is
    unchanged — fault-free runs stay bit-identical. *)

type send_fault =
  | Net_drop  (** vanish at the sender's egress; no bandwidth consumed *)
  | Net_delay of float  (** add seconds to the propagation leg *)
  | Net_dup of { copies : int; spacing_s : float }
      (** re-deliver the payload [copies] extra times after the
          original, [spacing_s] apart (receive-side duplication: the
          NIC serializes the bytes once, as with a transport-level
          retransmit). Each extra delivery is still gated on the
          destination being up at its own delivery time. *)

type fault_hook =
  src:addr -> dst:addr -> bulk:bool -> bytes:int -> now:float ->
  send_fault option
(** [now] is the sender's current virtual time, so a hook can make
    window decisions ([at <= now < at + for_s]) statelessly. *)

val set_fault_hook : t -> fault_hook option -> unit
(** Installs (or clears) the link-fault hook. The hook must be
    deterministic for reproducible runs — decide from its arguments and
    its own seeded state, never from wall-clock or global randomness. *)

val faults_dropped : t -> int
(** Messages dropped by the hook since creation. *)

val faults_delayed : t -> int

val faults_duplicated : t -> int
(** Messages the hook duplicated (original deliveries, not copies). *)

val wan_bytes_sent : t -> int
(** Total bytes accepted by all WAN uplinks since creation. *)

val wan_bytes_sent_of : t -> addr -> int
val lan_bytes_sent : t -> int

val reset_traffic_baseline : t -> unit
(** Zeroes the traffic counters' logical origin so a measurement window
    can exclude warm-up traffic. *)

val wan_uplink_backlog_s : t -> addr -> float
(** Seconds of queued transmission on the node's WAN uplink (0 when
    idle) — the congestion diagnostic. Covers both service classes
    (the maximum over the bulk and control queues, which serialize
    independently — see {!Nic.backlog_s}). *)

(** {1 Read-only interface access}

    The observability sampler polls individual NICs for busy-fraction
    and backlog; these accessors expose them without widening the
    mutable surface. *)

type link = Wan_up | Wan_down | Lan_up | Lan_down

val link_to_string : link -> string
(** ["wan_up"], ["wan_down"], ["lan_up"], ["lan_down"] — matches the
    link labels used by tracing. *)

val all_links : link list
(** The four links in a fixed order (WAN before LAN, up before down). *)

val nic : t -> addr -> link -> Nic.t
(** The node's NIC for one link direction. Callers must treat it as
    read-only: transmissions go through {!send}. *)
