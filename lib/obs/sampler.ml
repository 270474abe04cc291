module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Nic = Massbft_sim.Nic
module Cpu = Massbft_sim.Cpu

type probe = {
  p_name : string;
  p_labels : Registry.labels;
  p_resource : string option;
  p_gauge : Registry.gauge;
  p_fn : now:float -> dt:float -> float;
}

type t = {
  reg : Registry.t;
  tick_s : float;
  mutable probes : probe list;  (* newest first *)
  mutable frozen : probe array;  (* registration order; set at attach *)
  mutable rows : (float * float array) list;  (* newest first *)
  mutable attached : bool;
  mutable last_tick : float;
}

let default_period = 0.1

let create ?(period = default_period) reg =
  if period <= 0.0 then invalid_arg "Sampler.create: period must be positive";
  {
    reg;
    tick_s = period;
    probes = [];
    frozen = [||];
    rows = [];
    attached = false;
    last_tick = 0.0;
  }

let registry t = t.reg
let period t = t.tick_s
let attached t = t.attached

let add_probe t ~name ?help ~labels ?resource fn =
  if t.attached then
    invalid_arg "Sampler.add_probe: sampler already attached";
  let g = Registry.gauge t.reg ~name ?help labels in
  t.probes <-
    { p_name = name; p_labels = labels; p_resource = resource; p_gauge = g; p_fn = fn }
    :: t.probes

(* ---- standard fabric probes ---- *)

let class_tag = function Nic.Bulk -> "bulk" | Nic.Ctrl -> "ctrl"

let watch_topology t topo =
  List.iter
    (fun a ->
      let where = Topology.addr_to_string a in
      let base =
        [
          ("group", string_of_int a.Topology.g);
          ("node", string_of_int a.Topology.n);
        ]
      in
      List.iter
        (fun link ->
          let nic = Topology.nic topo a link in
          let lname = Topology.link_to_string link in
          List.iter
            (fun cls ->
              let labels =
                base @ [ ("link", lname); ("class", class_tag cls) ]
              in
              let resource =
                match cls with
                | Nic.Bulk -> where ^ " " ^ lname
                | Nic.Ctrl -> where ^ " " ^ lname ^ ".ctrl"
              in
              let prev = ref (Nic.class_busy_seconds nic cls) in
              add_probe t ~name:"massbft_nic_busy_fraction"
                ~help:
                  "Fraction of the sampling window the link spent serializing \
                   this service class (offered load, capped at 1)"
                ~labels ~resource
                (fun ~now:_ ~dt ->
                  let cur = Nic.class_busy_seconds nic cls in
                  let d = cur -. !prev in
                  prev := cur;
                  if dt <= 0.0 then 0.0 else Float.min 1.0 (d /. dt));
              add_probe t ~name:"massbft_nic_backlog_seconds"
                ~help:"Seconds of transmission queued in this service class"
                ~labels
                (fun ~now:_ ~dt:_ -> Nic.class_backlog_s nic cls))
            [ Nic.Bulk; Nic.Ctrl ])
        Topology.all_links;
      let cpu = Topology.cpu topo a in
      let cores = float_of_int (Topology.cores topo) in
      let prev = ref (Cpu.busy_seconds cpu) in
      add_probe t ~name:"massbft_cpu_utilization"
        ~help:
          "Fraction of core-time the node's CPU spent busy during the \
           sampling window (capped at 1)"
        ~labels:base ~resource:(where ^ " cpu")
        (fun ~now:_ ~dt ->
          let cur = Cpu.busy_seconds cpu in
          let d = cur -. !prev in
          prev := cur;
          if dt <= 0.0 then 0.0 else Float.min 1.0 (d /. (dt *. cores)));
      add_probe t ~name:"massbft_cpu_queue_depth"
        ~help:"Tasks submitted to the node's CPU but not yet completed"
        ~labels:base
        (fun ~now:_ ~dt:_ -> float_of_int (Cpu.queue_depth cpu)))
    (Topology.nodes topo)

let watch_sim t sim =
  (* Cheap reads off the event loop itself: pending and dispatched
     counts are maintained incrementally, so polling costs nothing
     regardless of queue depth. The [_total] aggregates cover every
     shard handle of the sim. *)
  add_probe t ~name:"massbft_sim_pending_events"
    ~help:"Scheduled (uncancelled, unfired) events across all shard queues"
    ~labels:[]
    (fun ~now:_ ~dt:_ -> float_of_int (Sim.pending_total sim));
  let prev = ref (Sim.dispatched_total sim) in
  add_probe t ~name:"massbft_sim_dispatch_rate"
    ~help:"Events fired per simulated second during the sampling window"
    ~labels:[]
    (fun ~now:_ ~dt ->
      let cur = Sim.dispatched_total sim in
      let d = cur - !prev in
      prev := cur;
      if dt <= 0.0 then 0.0 else float_of_int d /. dt)

(* ---- the tick loop ---- *)

let attach t sim =
  if t.attached then invalid_arg "Sampler.attach: already attached";
  t.attached <- true;
  t.frozen <- Array.of_list (List.rev t.probes);
  t.last_tick <- Sim.now sim;
  let rec tick () =
    let now = Sim.now sim in
    let dt = now -. t.last_tick in
    if dt > 0.0 then begin
      let row =
        Array.map
          (fun p ->
            let v = p.p_fn ~now ~dt in
            Registry.set p.p_gauge v;
            v)
          t.frozen
      in
      t.rows <- (now, row) :: t.rows;
      t.last_tick <- now
    end;
    ignore (Sim.after sim t.tick_s tick)
  in
  ignore (Sim.after sim t.tick_s tick)

let reset t = t.rows <- []

let columns t =
  let ps = if t.attached then Array.to_list t.frozen else List.rev t.probes in
  List.map (fun p -> (p.p_name, p.p_labels)) ps

let resource_columns t =
  let ps = if t.attached then Array.to_list t.frozen else List.rev t.probes in
  List.filter_map
    (function i, Some r -> Some (i, r) | _, None -> None)
    (List.mapi (fun i p -> (i, p.p_resource)) ps)

let rows t = List.rev t.rows
let tick_count t = List.length t.rows

let canon labels = List.sort compare labels

let column_index t ~name ~labels =
  let labels = canon labels in
  let rec find i = function
    | [] -> None
    | (n, ls) :: rest ->
        if n = name && canon ls = labels then Some i else find (i + 1) rest
  in
  find 0 (columns t)

let column_mean t ~name ~labels =
  match column_index t ~name ~labels with
  | None -> None
  | Some i ->
      let n = List.length t.rows in
      if n = 0 then Some 0.0
      else
        Some
          (List.fold_left (fun acc (_, row) -> acc +. row.(i)) 0.0 t.rows
          /. float_of_int n)

(* Label blocks in CSV headers use ';' as the pair separator so cells
   never contain commas and need no quoting. *)
let column_id name labels =
  match labels with
  | [] -> name
  | labels ->
      name ^ "{"
      ^ String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time";
  List.iter
    (fun (name, labels) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (column_id name labels))
    (columns t);
  Buffer.add_char buf '\n';
  List.iter
    (fun (time, row) ->
      Buffer.add_string buf (Printf.sprintf "%.6f" time);
      Array.iter
        (fun v ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (Exposition.fmt_float v))
        row;
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf
