(** The two physical deployments of the paper's evaluation (§VI),
    reproduced as topology specifications:

    - {e nationwide}: Zhangjiakou / Chengdu / Hangzhou, inter-group RTTs
      26.7–43.4 ms;
    - {e worldwide}: Hong Kong / London / Silicon Valley, RTTs
      156–206 ms;

    each node with an exclusive 20 Mbps WAN link, 2.5 Gbps LAN, and 8
    cores (ecs.c6.2xlarge). The nationwide cluster extends to seven
    groups (adding Shenzhen, Beijing, Shanghai, Guangzhou) for the
    group-scaling experiment (Figure 13b). *)

val wan_bps : float
(** 20 Mbps. *)

val lan_bps : float
(** 2.5 Gbps. *)

val cores : int
(** 8. *)

val nationwide :
  ?group_sizes:int array -> ?nodes_per_group:int -> ?groups:int -> unit ->
  Massbft_sim.Topology.spec
(** Defaults: 3 groups of 7 nodes. [group_sizes] overrides individual
    sizes (Figure 12); [groups] may extend to 7 (Figure 13b). *)

val worldwide :
  ?group_sizes:int array -> ?nodes_per_group:int -> unit ->
  Massbft_sim.Topology.spec
(** 3 groups across Hong Kong / London / Silicon Valley. *)

val nationwide_rtt : int -> int -> float
(** Exposed for tests: symmetric, within the paper's 26.7–43.4 ms range
    for the first three sites. *)

val worldwide_rtt : int -> int -> float
