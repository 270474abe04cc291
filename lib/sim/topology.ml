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
  shards : Sim.t array;  (* group [g]'s shard handle *)
  one_way : float array array;
      (* [one_way.(g).(h)]: half of [rtt g h], and half of [lan_rtt] on
         the diagonal; computed once, at [create] *)
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
  (* [not (x >= 0.0)] also rejects NaN, which would otherwise schedule
     NaN-time events. *)
  if not (spec.lan_rtt >= 0.0) then
    invalid_arg "Topology.create: lan_rtt must be >= 0 (and not NaN)";
  let ng = Array.length spec.group_sizes in
  let one_way =
    Array.init ng (fun g ->
        Array.init ng (fun h ->
            if g = h then spec.lan_rtt /. 2.0
            else begin
              let rtt = spec.rtt g h in
              if not (rtt >= 0.0) then
                invalid_arg
                  (Printf.sprintf
                     "Topology.create: WAN rtt %g between groups %d and %d \
                      must be >= 0 (and not NaN)"
                     rtt g h);
              rtt /. 2.0
            end))
  in
  (* Each group lives on one shard (round-robin when there are fewer
     shards than groups): its NICs and CPU account their events to that
     shard. *)
  let shards = Array.init ng (fun g -> Sim.shard sim (g mod Sim.n_shards sim)) in
  let mk_node g =
    let sim = shards.(g) in
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
    shards;
    one_way;
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
let shard_of t g =
  if g < 0 || g >= n_groups t then invalid_arg "Topology.shard_of: bad group";
  t.shards.(g)

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

(* [copies] re-deliveries follow the original, [spacing] apart. *)
type dup = { copies : int; spacing : float }

let no_dup = { copies = 0; spacing = 0.0 }

(* Store-and-forward: uplink serialization, propagation, downlink
   serialization, then delivery (if the receiver is still up). The
   uplink's finish time is known now, so the arrival is scheduled
   directly, on the destination group's shard, with a seq drawn at send
   time (DESIGN §13); the arrival reserves the downlink and schedules
   the delivery. [extra] stretches propagation ([Net_delay]); [dup]
   re-delivers ([Net_dup]). *)
let remote t ~bulk ~(src : addr) ~(dst : addr) ~src_state ~dst_state ~bytes
    ~extra ~dup k =
  let wan = src.g <> dst.g in
  let up = if wan then src_state.wan_up else src_state.lan_up in
  let down = if wan then dst_state.wan_down else dst_state.lan_down in
  let one_way = t.one_way.(src.g).(dst.g) +. extra in
  let dst_sim = t.shards.(dst.g) in
  let finish = Nic.reserve ~bulk up ~bytes in
  let arrival = finish +. one_way in
  if Trace.enabled t.trace then
    Trace.span t.trace ~cat:"net" ~gid:src.g ~node:src.n
      ~args:
        [ ("dst", Trace.Str (addr_to_string dst)); ("bytes", Trace.Int bytes) ]
      ~b:finish ~e:arrival "propagate";
  Sim.at dst_sim arrival (fun () ->
      Sim.at dst_sim (Nic.reserve ~bulk down ~bytes) (fun () ->
          if dst_state.up then k ();
          for i = 1 to dup.copies do
            Sim.after dst_sim (dup.spacing *. float_of_int i) (fun () ->
                if dst_state.up then k ())
          done))

let send ~bulk t ~src ~dst ~bytes k =
  let src_state = state t src and dst_state = state t dst in
  if bytes < 0 then invalid_arg "Topology.send: negative size";
  if not src_state.up then ()
  else if addr_equal src dst then
    Sim.at t.shards.(dst.g)
      (Sim.now t.sim +. loopback_latency)
      (fun () -> if dst_state.up then k ())
  else
    (* Injected link faults (chaos testing). The hook is [None] outside
       fault experiments, so the fault-free path costs one match. A
       dropped message vanishes at the sender's egress (no bandwidth is
       consumed); a delay stretches propagation; a duplicate re-delivers
       the payload after the original (receive-side duplication — the
       NIC serialized it once, as with a transport-level retransmit). *)
    match t.fault_hook with
    | None ->
        remote t ~bulk ~src ~dst ~src_state ~dst_state ~bytes ~extra:0.0
          ~dup:no_dup k
    | Some hook -> (
        match hook ~src ~dst ~bulk ~bytes ~now:(Sim.now t.sim) with
        | Some Net_drop -> t.faults_dropped <- t.faults_dropped + 1
        | Some (Net_delay d) when d > 0.0 ->
            t.faults_delayed <- t.faults_delayed + 1;
            remote t ~bulk ~src ~dst ~src_state ~dst_state ~bytes ~extra:d
              ~dup:no_dup k
        | Some (Net_dup { copies; spacing_s }) when copies > 0 ->
            t.faults_duplicated <- t.faults_duplicated + 1;
            remote t ~bulk ~src ~dst ~src_state ~dst_state ~bytes ~extra:0.0
              ~dup:{ copies; spacing = Float.max spacing_s loopback_latency }
              k
        | None | Some (Net_delay _ | Net_dup _) ->
            remote t ~bulk ~src ~dst ~src_state ~dst_state ~bytes ~extra:0.0
              ~dup:no_dup k)

let sum_over t f =
  Array.fold_left
    (fun acc group -> Array.fold_left (fun acc n -> acc + f n) acc group)
    0 t.nodes

let wan_bytes_sent t = sum_over t (fun n -> Nic.bytes_sent n.wan_up) - t.wan_baseline
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
