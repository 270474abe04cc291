module Trace = Massbft_trace.Trace

type cls = Bulk | Ctrl

(* An all-float record is stored flat, so updating these fields on
   every frame allocates nothing. *)
type queues = {
  mutable bandwidth_bps : float;
  mutable busy_until : float;  (* bulk-class queue *)
  mutable ctrl_busy_until : float;  (* control-class queue *)
  mutable bulk_busy_s : float;  (* cumulative serialization time accepted *)
  mutable ctrl_busy_s : float;
}

type t = {
  sim : Sim.t;
  q : queues;
  mutable bulk_bytes_sent : int;
  mutable ctrl_bytes_sent : int;
  mutable trace : Trace.t;
  mutable tr_gid : int;
  mutable tr_node : int;
  mutable tr_link : string;
}

let create sim ~bandwidth_bps =
  if bandwidth_bps <= 0.0 then
    invalid_arg "Nic.create: bandwidth must be positive";
  {
    sim;
    q =
      {
        bandwidth_bps;
        busy_until = 0.0;
        ctrl_busy_until = 0.0;
        bulk_busy_s = 0.0;
        ctrl_busy_s = 0.0;
      };
    bulk_bytes_sent = 0;
    ctrl_bytes_sent = 0;
    trace = Trace.null;
    tr_gid = -1;
    tr_node = -1;
    tr_link = "";
  }

let bandwidth t = t.q.bandwidth_bps

let set_bandwidth t bps =
  if bps <= 0.0 then invalid_arg "Nic.set_bandwidth: bandwidth must be positive";
  t.q.bandwidth_bps <- bps

let set_trace t tr ~gid ~node ~link =
  t.trace <- tr;
  t.tr_gid <- gid;
  t.tr_node <- node;
  t.tr_link <- link

let reserve ~bulk t ~bytes =
  if bytes < 0 then invalid_arg "Nic.reserve: negative size";
  let q = t.q in
  let queue_head = if bulk then q.busy_until else q.ctrl_busy_until in
  let now = Sim.now t.sim in
  (* [Float.max] without its call: neither time is NaN. *)
  let start = if queue_head > now then queue_head else now in
  let duration = float_of_int bytes *. 8.0 /. q.bandwidth_bps in
  let finish = start +. duration in
  if bulk then begin
    q.busy_until <- finish;
    t.bulk_bytes_sent <- t.bulk_bytes_sent + bytes;
    q.bulk_busy_s <- q.bulk_busy_s +. duration
  end
  else begin
    q.ctrl_busy_until <- finish;
    t.ctrl_bytes_sent <- t.ctrl_bytes_sent + bytes;
    q.ctrl_busy_s <- q.ctrl_busy_s +. duration
  end;
  if Trace.enabled t.trace then begin
    let link = if bulk then t.tr_link ^ ".bulk" else t.tr_link in
    if start > now then
      Trace.span t.trace ~cat:"nic" ~gid:t.tr_gid ~node:t.tr_node
        ~args:[ ("link", Trace.Str link); ("bytes", Trace.Int bytes) ]
        ~b:now ~e:start "queue";
    Trace.span t.trace ~cat:"nic" ~gid:t.tr_gid ~node:t.tr_node
      ~args:[ ("link", Trace.Str link); ("bytes", Trace.Int bytes) ]
      ~b:start ~e:finish "xmit"
  end;
  finish

let transmit ?(bulk = false) t ~bytes k = Sim.at t.sim (reserve ~bulk t ~bytes) k

let ctrl_busy_until t = t.q.ctrl_busy_until
let bytes_sent t = t.bulk_bytes_sent + t.ctrl_bytes_sent
let class_bytes_sent t = function
  | Bulk -> t.bulk_bytes_sent
  | Ctrl -> t.ctrl_bytes_sent

let class_busy_seconds t = function
  | Bulk -> t.q.bulk_busy_s
  | Ctrl -> t.q.ctrl_busy_s

let backlog_s t =
  let now = Sim.now t.sim in
  Float.max 0.0
    (Float.max (t.q.busy_until -. now) (t.q.ctrl_busy_until -. now))

let class_backlog_s t cls =
  let head = match cls with Bulk -> t.q.busy_until | Ctrl -> t.q.ctrl_busy_until in
  Float.max 0.0 (head -. Sim.now t.sim)
