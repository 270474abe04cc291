module Trace = Massbft_trace.Trace

type addr = { g : int; n : int }

let addr_to_string a = Printf.sprintf "g%d/n%d" a.g a.n
let addr_equal a b = a.g = b.g && a.n = b.n

type spec = {
  group_sizes : int array;
  wan_bps : float;
  lan_bps : float;
  rtt : int -> int -> float;
  lan_rtt : float;
  cores : int;
}

type node_state = {
  wan_up : Nic.t;
  wan_down : Nic.t;
  lan_up : Nic.t;
  lan_down : Nic.t;
  cpu : Cpu.t;
  mutable up : bool;
}

type send_fault =
  | Net_drop
  | Net_delay of float
  | Net_dup of { copies : int; spacing_s : float }

type fault_hook =
  src:addr -> dst:addr -> bulk:bool -> bytes:int -> now:float ->
  send_fault option

type t = {
  sim : Sim.t;
  spec : spec;
  nodes : node_state array array;
  mutable wan_baseline : int;
  mutable lan_baseline : int;
  mutable fault_hook : fault_hook option;
  mutable faults_dropped : int;
  mutable faults_delayed : int;
  mutable faults_duplicated : int;
  mutable trace : Trace.t;
}

(* Half the minimum inter-group RTT: the shortest time in which one
   group's event can affect another group. [infinity] for one group. *)
let min_wan_one_way spec =
  let ng = Array.length spec.group_sizes in
  let m = ref infinity in
  for g = 0 to ng - 1 do
    for h = 0 to ng - 1 do
      if g <> h then m := Float.min !m (spec.rtt g h /. 2.0)
    done
  done;
  !m

let create sim spec =
  if Array.length spec.group_sizes = 0 then
    invalid_arg "Topology.create: need at least one group";
  Array.iter
    (fun s ->
      if s < 1 then invalid_arg "Topology.create: empty group")
    spec.group_sizes;
  if spec.lan_rtt < 0.0 then invalid_arg "Topology.create: negative lan_rtt";
  (* Each group lives on one shard (round-robin when there are fewer
     shards than groups): its NICs and CPU account their events to that
     shard. *)
  let shard_sim g = Sim.shard sim (g mod Sim.n_shards sim) in
  let mk_node g =
    let sim = shard_sim g in
    {
      wan_up = Nic.create sim ~bandwidth_bps:spec.wan_bps;
      wan_down = Nic.create sim ~bandwidth_bps:spec.wan_bps;
      lan_up = Nic.create sim ~bandwidth_bps:spec.lan_bps;
      lan_down = Nic.create sim ~bandwidth_bps:spec.lan_bps;
      cpu = Cpu.create sim ~cores:spec.cores;
      up = true;
    }
  in
  let nodes =
    Array.mapi
      (fun g size -> Array.init size (fun _ -> mk_node g))
      spec.group_sizes
  in
  {
    sim;
    spec;
    nodes;
    wan_baseline = 0;
    lan_baseline = 0;
    fault_hook = None;
    faults_dropped = 0;
    faults_delayed = 0;
    faults_duplicated = 0;
    trace = Trace.null;
  }

let sim t = t.sim
let n_groups t = Array.length t.nodes
let shard_of t g = Sim.shard t.sim (g mod Sim.n_shards t.sim)

let group_size t g =
  if g < 0 || g >= n_groups t then invalid_arg "Topology.group_size: bad group";
  Array.length t.nodes.(g)

let valid_addr t a =
  a.g >= 0 && a.g < n_groups t && a.n >= 0 && a.n < Array.length t.nodes.(a.g)

let state t a =
  if not (valid_addr t a) then
    invalid_arg (Printf.sprintf "Topology: invalid address %s" (addr_to_string a));
  t.nodes.(a.g).(a.n)

let group_nodes t g =
  List.init (group_size t g) (fun n -> { g; n })

let nodes t =
  List.concat (List.init (n_groups t) (fun g -> group_nodes t g))

let set_trace t tr =
  t.trace <- tr;
  Array.iteri
    (fun g group ->
      Array.iteri
        (fun n st ->
          Nic.set_trace st.wan_up tr ~gid:g ~node:n ~link:"wan_up";
          Nic.set_trace st.wan_down tr ~gid:g ~node:n ~link:"wan_down";
          Nic.set_trace st.lan_up tr ~gid:g ~node:n ~link:"lan_up";
          Nic.set_trace st.lan_down tr ~gid:g ~node:n ~link:"lan_down";
          Cpu.set_trace st.cpu tr ~gid:g ~node:n)
        group)
    t.nodes

let alive t a = (state t a).up

let crash t a =
  (state t a).up <- false;
  Trace.instant t.trace ~cat:"topo" ~gid:a.g ~node:a.n "node_down"

let recover t a =
  (state t a).up <- true;
  Trace.instant t.trace ~cat:"topo" ~gid:a.g ~node:a.n "node_up"
let crash_group t g = List.iter (crash t) (group_nodes t g)
let recover_group t g = List.iter (recover t) (group_nodes t g)
let cpu t a = (state t a).cpu
let cores t = t.spec.cores

let set_wan_bandwidth t a bps =
  let s = state t a in
  Nic.set_bandwidth s.wan_up bps;
  Nic.set_bandwidth s.wan_down bps

let set_lan_bandwidth t a bps =
  let s = state t a in
  Nic.set_bandwidth s.lan_up bps;
  Nic.set_bandwidth s.lan_down bps

let set_fault_hook t hook = t.fault_hook <- hook
let faults_dropped t = t.faults_dropped
let faults_delayed t = t.faults_delayed
let faults_duplicated t = t.faults_duplicated

(* Local processing latency for a loopback delivery: one event-loop hop,
   effectively immediate but strictly causal. *)
let loopback_latency = 1e-6

let send ?(bulk = false) t ~src ~dst ~bytes k =
  let src_state = state t src and dst_state = state t dst in
  if bytes < 0 then invalid_arg "Topology.send: negative size";
  if not src_state.up then ()
  else if addr_equal src dst then
    ignore
      (Sim.at (shard_of t dst.g)
         (Sim.now t.sim +. loopback_latency)
         (fun () -> if dst_state.up then k ()))
  else begin
    (* Injected link faults (chaos testing). The hook is [None] outside
       fault experiments, so the fault-free path costs one match. A
       dropped message vanishes at the sender's egress (no bandwidth is
       consumed); a delay stretches propagation; a duplicate re-delivers
       the payload after the original (receive-side duplication — the
       NIC serialized it once, as with a transport-level retransmit). *)
    let verdict =
      match t.fault_hook with
      | None -> None
      | Some hook -> hook ~src ~dst ~bulk ~bytes ~now:(Sim.now t.sim)
    in
    match verdict with
    | Some Net_drop -> t.faults_dropped <- t.faults_dropped + 1
    | (None | Some (Net_delay _) | Some (Net_dup _)) as verdict ->
        let extra_delay, dup =
          match verdict with
          | Some (Net_delay d) when d > 0.0 ->
              t.faults_delayed <- t.faults_delayed + 1;
              (d, None)
          | Some (Net_dup { copies; spacing_s }) when copies > 0 ->
              t.faults_duplicated <- t.faults_duplicated + 1;
              (0.0, Some (copies, Float.max spacing_s loopback_latency))
          | _ -> (0.0, None)
        in
        let up, down, one_way =
          if src.g = dst.g then
            (src_state.lan_up, dst_state.lan_down, t.spec.lan_rtt /. 2.0)
          else begin
            let rtt = t.spec.rtt src.g dst.g in
            if rtt < 0.0 then invalid_arg "Topology.send: negative WAN rtt";
            (src_state.wan_up, dst_state.wan_down, rtt /. 2.0)
          end
        in
        let one_way = one_way +. extra_delay in
        (* Store-and-forward: uplink serialization, propagation, downlink
           serialization, then delivery (if the receiver is still up).
           The downlink arrival is accounted to the destination group's
           shard. *)
        let dst_sim = shard_of t dst.g in
        Nic.transmit ~bulk up ~bytes (fun () ->
            let tnow = Sim.now t.sim in
            if Trace.enabled t.trace then
              Trace.span t.trace ~cat:"net" ~gid:src.g ~node:src.n
                ~args:
                  [ ("dst", Trace.Str (addr_to_string dst));
                    ("bytes", Trace.Int bytes) ]
                ~b:tnow ~e:(tnow +. one_way) "propagate";
            ignore
              (Sim.at dst_sim (tnow +. one_way) (fun () ->
                   Nic.transmit ~bulk down ~bytes (fun () ->
                       let deliver () = if dst_state.up then k () in
                       deliver ();
                       match dup with
                       | None -> ()
                       | Some (copies, spacing) ->
                           for i = 1 to copies do
                             ignore
                               (Sim.after t.sim
                                  (spacing *. float_of_int i)
                                  deliver)
                           done))))
  end

let sum_over t f =
  Array.fold_left
    (fun acc group -> Array.fold_left (fun acc n -> acc + f n) acc group)
    0 t.nodes

let wan_bytes_sent t = sum_over t (fun n -> Nic.bytes_sent n.wan_up) - t.wan_baseline
let wan_bytes_sent_of t a = Nic.bytes_sent (state t a).wan_up
let lan_bytes_sent t = sum_over t (fun n -> Nic.bytes_sent n.lan_up) - t.lan_baseline

let wan_uplink_backlog_s t a = Nic.backlog_s (state t a).wan_up

type link = Wan_up | Wan_down | Lan_up | Lan_down

let link_to_string = function
  | Wan_up -> "wan_up"
  | Wan_down -> "wan_down"
  | Lan_up -> "lan_up"
  | Lan_down -> "lan_down"

let all_links = [ Wan_up; Wan_down; Lan_up; Lan_down ]

let nic t a link =
  let s = state t a in
  match link with
  | Wan_up -> s.wan_up
  | Wan_down -> s.wan_down
  | Lan_up -> s.lan_up
  | Lan_down -> s.lan_down

let reset_traffic_baseline t =
  t.wan_baseline <- sum_over t (fun n -> Nic.bytes_sent n.wan_up);
  t.lan_baseline <- sum_over t (fun n -> Nic.bytes_sent n.lan_up)
