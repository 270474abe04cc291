(* Applies a fault schedule to a running deployment at scheduled sim
   times. Node/group crashes go through the engine (which owns the
   leader-migration machinery); link faults interpose on the topology's
   send path through its single fault hook; degradations reconfigure
   NIC bandwidths and CPU speed factors, healing back to nominal when
   their window closes.

   Every apply/heal event is accounted to the shard of the fault's
   target group. Link faults keep no activation state at all — the hook
   receives the sender's virtual time and decides from the precomputed
   windows ([at <= now < at + for_s]).

   Everything is armed up front ([arm]) as plain simulator events, so a
   run with an injector replays bit-identically from the same seed and
   schedule. With an empty schedule, [arm] schedules nothing and
   installs no hook — the run is indistinguishable from a fault-free
   one. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Cpu = Massbft_sim.Cpu
module Engine = Massbft.Engine
module Trace = Massbft_trace.Trace
module Registry = Massbft_obs.Registry
module F = Fault_spec

(* A link fault with its resolved activity window; [count] numbers the
   matching messages so [every]-gated faults hit a deterministic
   subsequence. *)
type lfault = {
  lf : F.fault;
  from_s : float;
  until_s : float;
  count : int ref;
}

type t = {
  sim : Sim.t;
  topo : Topology.t;
  engine : Engine.t;
  spec : Topology.spec;
  schedule : F.schedule;
  trace : Trace.t;
  registry : Registry.t option;
  kind_counters : (string, Registry.counter) Hashtbl.t;
  mutable link_faults : lfault array;
  mutable injected : int;
  mutable armed : bool;
}

let create ?(trace = Trace.null) ?registry ~spec ~schedule engine sim topo =
  (match F.validate ~group_sizes:spec.Topology.group_sizes schedule with
  | Ok () -> ()
  | Error e -> invalid_arg ("Injector.create: " ^ e));
  {
    sim;
    topo;
    engine;
    spec;
    schedule = F.sorted schedule;
    trace;
    registry;
    kind_counters = Hashtbl.create 11;
    link_faults = [||];
    injected = 0;
    armed = false;
  }

let schedule t = t.schedule
let injected_total t = t.injected

let count_injection t fault =
  t.injected <- t.injected + 1;
  match t.registry with
  | None -> ()
  | Some reg ->
      let kind = F.kind_name fault in
      let c =
        match Hashtbl.find_opt t.kind_counters kind with
        | Some c -> c
        | None ->
            (* Register each kind's series once; the same (name, labels)
               pair may only be registered once per registry. The
               strategy label distinguishes benign fault injections
               from adversary interference, which shares the family
               with strategy=<adversary kind>. *)
            let c =
              Registry.counter reg ~name:"massbft_faults_injected_total"
                ~help:"Fault events applied by the chaos injector"
                [ ("kind", kind); ("strategy", "fault") ]
            in
            Hashtbl.replace t.kind_counters kind c;
            c
      in
      Registry.inc c

(* ------------------------------------------------------------------ *)
(* The link-fault hook                                                 *)
(* ------------------------------------------------------------------ *)

let class_match cls ~bulk =
  match cls with F.Any -> true | F.Bulk -> bulk | F.Control -> not bulk

let dup_spacing_s = 0.001

(* First applicable window-active fault wins; [every]-gated faults
   count every matching message but only act on the [every]-th. The
   boundary convention [from_s <= now < until_s] reproduces the legacy
   stateful hook: an apply event armed up front fired before any
   same-time message, and the heal event (seq-allocated at apply time)
   fired before any message stamped exactly at the window's end. *)
let decide a ~now ~(src : Topology.addr) ~(dst : Topology.addr) ~bulk =
  if now < a.from_s || now >= a.until_s then None
  else
    match a.lf with
    | F.Partition { groups; _ } ->
        let inside g = List.mem g groups in
        if inside src.Topology.g <> inside dst.Topology.g then
          Some Topology.Net_drop
        else None
    | F.Link_drop { src_g; dst_g; every; cls; _ } ->
        if
          src.Topology.g = src_g
          && dst.Topology.g = dst_g
          && class_match cls ~bulk
        then begin
          incr a.count;
          if !(a.count) mod every = 0 then Some Topology.Net_drop else None
        end
        else None
    | F.Link_delay { src_g; dst_g; add_s; cls; _ } ->
        if
          src.Topology.g = src_g
          && dst.Topology.g = dst_g
          && class_match cls ~bulk
        then Some (Topology.Net_delay add_s)
        else None
    | F.Link_dup { src_g; dst_g; copies; every; cls; _ } ->
        if
          src.Topology.g = src_g
          && dst.Topology.g = dst_g
          && class_match cls ~bulk
        then begin
          incr a.count;
          if !(a.count) mod every = 0 then
            Some (Topology.Net_dup { copies; spacing_s = dup_spacing_s })
          else None
        end
        else None
    | _ -> None

let hook t : Topology.fault_hook =
 fun ~src ~dst ~bulk ~bytes:_ ~now ->
  let n = Array.length t.link_faults in
  let rec scan i =
    if i >= n then None
    else
      match decide t.link_faults.(i) ~now ~src ~dst ~bulk with
      | Some _ as f -> f
      | None -> scan (i + 1)
  in
  scan 0

let is_link_fault = function
  | F.Partition _ | F.Link_drop _ | F.Link_delay _ | F.Link_dup _ -> true
  | _ -> false

(* The group whose shard the fault's apply/heal events go to; [None]
   for link faults, which are window checks in the hook and need no
   application event. *)
let target_group = function
  | F.Crash_node a | F.Recover_node a -> Some a.Topology.g
  | F.Crash_group g | F.Recover_group g -> Some g
  | F.Wan_degrade { g; _ } | F.Lan_degrade { g; _ } -> Some g
  | F.Slow_cpu { addr; _ } -> Some addr.Topology.g
  | F.Partition _ | F.Link_drop _ | F.Link_delay _ | F.Link_dup _ -> None

(* ------------------------------------------------------------------ *)
(* Apply / heal                                                        *)
(* ------------------------------------------------------------------ *)

let group_nodes t g = Topology.group_nodes t.topo g

let apply t fault =
  match fault with
  | F.Crash_node a -> Engine.crash_node t.engine a
  | F.Recover_node a -> Engine.recover_node t.engine a
  | F.Crash_group g -> Engine.crash_group t.engine g
  | F.Recover_group g -> Engine.recover_group t.engine g
  | F.Partition _ | F.Link_drop _ | F.Link_delay _ | F.Link_dup _ -> ()
  | F.Wan_degrade { g; factor; _ } ->
      List.iter
        (fun a ->
          Topology.set_wan_bandwidth t.topo a
            (t.spec.Topology.wan_bps *. factor))
        (group_nodes t g)
  | F.Lan_degrade { g; factor; _ } ->
      List.iter
        (fun a ->
          Topology.set_lan_bandwidth t.topo a
            (t.spec.Topology.lan_bps *. factor))
        (group_nodes t g)
  | F.Slow_cpu { addr; factor; _ } ->
      Cpu.set_speed_factor (Topology.cpu t.topo addr) factor

(* Windows heal back to nominal (overlapping degradations of the same
   resource therefore heal together — the generator never overlaps
   them). *)
let heal t fault =
  match fault with
  | F.Crash_node _ | F.Recover_node _ | F.Crash_group _ | F.Recover_group _
  | F.Partition _ | F.Link_drop _ | F.Link_delay _ | F.Link_dup _ ->
      ()
  | F.Wan_degrade { g; _ } ->
      List.iter
        (fun a ->
          Topology.set_wan_bandwidth t.topo a t.spec.Topology.wan_bps)
        (group_nodes t g)
  | F.Lan_degrade { g; _ } ->
      List.iter
        (fun a ->
          Topology.set_lan_bandwidth t.topo a t.spec.Topology.lan_bps)
        (group_nodes t g)
  | F.Slow_cpu { addr; _ } ->
      Cpu.set_speed_factor (Topology.cpu t.topo addr) 1.0

let window_of = function
  | F.Partition { for_s; _ }
  | F.Link_drop { for_s; _ }
  | F.Link_delay { for_s; _ }
  | F.Link_dup { for_s; _ }
  | F.Wan_degrade { for_s; _ }
  | F.Lan_degrade { for_s; _ }
  | F.Slow_cpu { for_s; _ } ->
      Some for_s
  | F.Crash_node _ | F.Recover_node _ | F.Crash_group _ | F.Recover_group _
    ->
      None

let arm t =
  if t.armed then invalid_arg "Injector.arm: already armed";
  t.armed <- true;
  let tnow = Sim.now t.sim in
  t.link_faults <-
    Array.of_list
      (List.filter_map
         (fun { F.at; fault } ->
           if is_link_fault fault then begin
             let from_s = Float.max at tnow in
             let for_s = Option.value ~default:0.0 (window_of fault) in
             Some { lf = fault; from_s; until_s = from_s +. for_s; count = ref 0 }
           end
           else None)
         t.schedule);
  if Array.length t.link_faults > 0 then
    Topology.set_fault_hook t.topo (Some (hook t));
  List.iter
    (fun { F.at; fault } ->
      let at = Float.max at tnow in
      (* Counting + tracing are accounted to the creation shard (shard 0
         for the runner's deployments). *)
      ignore
        (Sim.at t.sim at (fun () ->
             count_injection t fault;
             match window_of fault with
             | None ->
                 Trace.instant t.trace ~cat:"fault"
                   (F.kind_name fault)
                   ~args:[ ("spec", Trace.Str (F.fault_to_string fault)) ]
             | Some for_s ->
                 let span =
                   Trace.span_begin t.trace ~cat:"fault"
                     (F.kind_name fault)
                     ~args:
                       [ ("spec", Trace.Str (F.fault_to_string fault)) ]
                 in
                 ignore
                   (Sim.after t.sim for_s (fun () ->
                        Trace.span_end t.trace span))));
      (* Application + heal accounted to the target group's shard. *)
      match target_group fault with
      | None -> ()
      | Some g ->
          let gsim = Topology.shard_of t.topo g in
          ignore
            (Sim.at gsim at (fun () ->
                 apply t fault;
                 match window_of fault with
                 | None -> ()
                 | Some for_s ->
                     ignore (Sim.after gsim for_s (fun () -> heal t fault)))))
    t.schedule
