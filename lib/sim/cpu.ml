module Trace = Massbft_trace.Trace

type t = {
  sim : Sim.t;
  cores : float array; (* per-core next-free time *)
  mutable busy : float;
  mutable in_flight : int; (* slices retired by a completion not yet fired *)
  mutable early : float array;
      (* min-heap of the finish times of slices that end before their
         charge's completion, [0 .. n_early-1] *)
  mutable n_early : int;
  mutable speed_factor : float; (* >= 1 stretches every submitted task *)
  mutable trace : Trace.t;
  mutable tr_gid : int;
  mutable tr_node : int;
}

let create sim ~cores =
  if cores < 1 then invalid_arg "Cpu.create: need at least one core";
  {
    sim;
    cores = Array.make cores 0.0;
    busy = 0.0;
    in_flight = 0;
    early = [||];
    n_early = 0;
    speed_factor = 1.0;
    trace = Trace.null;
    tr_gid = -1;
    tr_node = -1;
  }

let set_trace t tr ~gid ~node =
  t.trace <- tr;
  t.tr_gid <- gid;
  t.tr_node <- node

let earliest_core t =
  let best = ref 0 in
  for i = 1 to Array.length t.cores - 1 do
    if t.cores.(i) < t.cores.(!best) then best := i
  done;
  !best

let set_speed_factor t f =
  if f < 1.0 || not (Float.is_finite f) then
    invalid_arg "Cpu.set_speed_factor: factor must be finite and >= 1";
  t.speed_factor <- f

(* The [early] heap holds few entries (at most [slices - 1] per
   outstanding parallel charge), so a plain binary heap of floats will
   do. *)
let rec early_up h i f =
  let p = (i - 1) / 2 in
  if i > 0 && f < h.(p) then begin
    h.(i) <- h.(p);
    early_up h p f
  end
  else h.(i) <- f

let rec early_down h n i f =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
  if l < n && h.(c) < f then begin
    h.(i) <- h.(c);
    early_down h n c f
  end
  else h.(i) <- f

let push_early t f =
  if t.n_early = Array.length t.early then begin
    let grown = Array.make (max 8 (2 * t.n_early)) 0.0 in
    Array.blit t.early 0 grown 0 t.n_early;
    t.early <- grown
  end;
  early_up t.early t.n_early f;
  t.n_early <- t.n_early + 1

(* Drops the slices whose finish has passed. *)
let prune_early t =
  let now = Sim.now t.sim in
  while t.n_early > 0 && t.early.(0) <= now do
    let n = t.n_early - 1 in
    t.n_early <- n;
    if n > 0 then early_down t.early n 0 t.early.(n)
  done

let submit_parallel t ~slices ~seconds k =
  if seconds < 0.0 then invalid_arg "Cpu.submit: negative duration";
  if slices < 1 then invalid_arg "Cpu.submit_parallel: need at least one slice";
  prune_early t;
  let seconds = seconds /. float_of_int slices *. t.speed_factor in
  let now = Sim.now t.sim in
  let last = ref neg_infinity and at_last = ref 0 in
  for _ = 1 to slices do
    let core = earliest_core t in
    let start = Float.max now t.cores.(core) in
    let finish = start +. seconds in
    t.cores.(core) <- finish;
    t.busy <- t.busy +. seconds;
    (* Equal slices on the earliest-free core finish in non-decreasing
       order, so the last slice ends latest; those ending strictly
       before it leave the depth by time. *)
    if finish > !last then begin
      for _ = 1 to !at_last do
        push_early t !last
      done;
      last := finish;
      at_last := 0
    end;
    incr at_last;
    if Trace.enabled t.trace then begin
      if start > now then
        Trace.span t.trace ~cat:"cpu" ~gid:t.tr_gid ~node:t.tr_node
          ~args:[ ("core", Trace.Int core) ]
          ~b:now ~e:start "wait";
      if seconds > 0.0 then
        Trace.span t.trace ~cat:"cpu" ~gid:t.tr_gid ~node:t.tr_node
          ~args:[ ("core", Trace.Int core) ]
          ~b:start ~e:finish "run"
    end
  done;
  (* One completion, at the latest finish, retires the slices ending
     there. *)
  let retired = !at_last in
  t.in_flight <- t.in_flight + retired;
  Sim.at t.sim !last (fun () ->
      t.in_flight <- t.in_flight - retired;
      k ())

let submit t ~seconds k = submit_parallel t ~slices:1 ~seconds k

let queue_depth t =
  prune_early t;
  t.in_flight + t.n_early

let utilization t ~since =
  let elapsed = Sim.now t.sim -. since in
  if elapsed <= 0.0 then 0.0
  else
    let capacity = elapsed *. float_of_int (Array.length t.cores) in
    Float.min 1.0 (t.busy /. capacity)

let busy_seconds t = t.busy
