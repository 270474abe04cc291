(** The fault-schedule DSL (chaos layer, DESIGN.md "Fault model").

    A schedule is a list of timed fault events applied to a running
    deployment by {!Injector}. Every spec has a stable one-line text
    form so a failing chaos schedule travels as readable lines — a CI
    artifact, a bug report, a [massbft drill] repro — and parses back
    into exactly the same injection:

    {v
    @3 crash-node g0/n0
    @4.5 recover-node g0/n0
    @2 link-drop g0->g1 every 3 class bulk for 2.5
    @2 partition g2 for 1.5
    @1 slow-cpu g1/n2 factor 4 for 3
    v} *)

module Topology = Massbft_sim.Topology

(** NIC service class selector for link faults: entry payloads travel
    [Bulk], consensus votes and acks [Control]. *)
type service_class = Any | Bulk | Control

type fault =
  | Crash_node of Topology.addr
  | Recover_node of Topology.addr
  | Crash_group of int
  | Recover_group of int
  | Partition of { groups : int list; for_s : float }
      (** cut all WAN traffic between [groups] and the remaining groups
          (both directions) for [for_s] seconds *)
  | Link_drop of {
      src_g : int;
      dst_g : int;
      every : int;  (** drop every [every]-th matching message (1 = all) *)
      cls : service_class;
      for_s : float;
    }
  | Link_delay of {
      src_g : int;
      dst_g : int;
      add_s : float;  (** added to the propagation leg *)
      cls : service_class;
      for_s : float;
    }
  | Link_dup of {
      src_g : int;
      dst_g : int;
      copies : int;  (** extra deliveries per duplicated message *)
      every : int;  (** duplicate every [every]-th matching message *)
      cls : service_class;
      for_s : float;
    }
  | Wan_degrade of { g : int; factor : float; for_s : float }
      (** scale every node-of-[g]'s WAN bandwidth by [factor] in (0,1] *)
  | Lan_degrade of { g : int; factor : float; for_s : float }
  | Slow_cpu of { addr : Topology.addr; factor : float; for_s : float }
      (** gray failure: the node computes [factor >= 1] times slower *)

type event = { at : float; fault : fault }
type schedule = event list

val kind_name : fault -> string
(** Stable snake_case kind labels ("crash_node", "link_drop", ...) used
    by the injector's metrics and trace spans. *)

val window_of : fault -> float option
(** [for_s] of a windowed fault; [None] for crashes and recoveries. *)

val fault_to_string : fault -> string
val event_to_string : event -> string

val to_string : schedule -> string
(** One event per line, each terminated by a newline. *)

val of_string : string -> schedule
(** Parses the {!to_string} form with {!Massbft_sim.Timed_line.read}:
    blank lines and [#] comment lines are skipped, and malformed input
    raises {!Massbft_sim.Timed_line.Parse_error} naming the line.
    [of_string (to_string s)] reproduces [s] for every schedule the
    chaos generator emits (times quantized to 1 ms). *)

val validate : group_sizes:int array -> schedule -> (unit, string) result
(** Structural checks against a deployment shape: addresses in range,
    positive windows, degradation factors in (0,1], slow-CPU factors
    >= 1, link faults on WAN links only. *)

val heal_time : schedule -> float
(** Time by which every injected fault has healed: window faults at
    [at +. for_s], crashes at their matching recover event — infinity
    if a crash is never recovered (callers then disable liveness
    expectations). 0 for the empty schedule. *)

val sorted : schedule -> schedule
(** Stable sort by injection time. *)
