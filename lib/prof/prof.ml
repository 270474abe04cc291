module Sim = Massbft_sim.Sim
module Registry = Massbft_obs.Registry

(* Host-side self-profiling of the simulator's own execution.

   Everything the repo's other observability measures — traces, the
   sampler, saturation verdicts — lives in *simulated* time; this
   module accounts where the host's *wall-clock* goes while the
   simulator produces those simulated seconds. [run] drives [Sim.run]
   in lookahead-wide slices and logs each one: wall time, events
   dispatched and GC deltas.

   The design constraint is that profiling must not perturb the run:
   the driver never reads simulation state, never schedules events,
   and touches the host clock per *slice*, never per event. Splitting
   one [Sim.run] into several fires the same events in the same order,
   so golden fixtures stay byte-identical with profiling on. *)

(* CLOCK_MONOTONIC via bechamel's noalloc stub, in seconds. *)
let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type slice = {
  s_end : float;  (* simulated time at the slice's end *)
  s_host_t0 : float;  (* host seconds since the first slice started *)
  s_wall : float;
  s_events : int;
  s_gc_minor : int;  (* Gc.quick_stat deltas over the slice *)
  s_gc_major : int;
  s_gc_promoted_w : float;
}

type t = {
  mutable shards : int;
  mutable lookahead : float;
  mutable t0 : float option;  (* host time of the first slice's start *)
  mutable slices_rev : slice list;
  mutable n_slices : int;
  mutable tot_events : int;
  mutable tot_wall : float;
  mutable max_end : float;
}

let create () =
  {
    shards = 1;
    lookahead = 0.0;
    t0 = None;
    slices_rev = [];
    n_slices = 0;
    tot_events = 0;
    tot_wall = 0.0;
    max_end = 0.0;
  }

let slice p sim ~until =
  let g0 = Gc.quick_stat () in
  let d0 = Sim.dispatched_total sim in
  let h0 = monotonic () in
  Sim.run sim ~until;
  let dt = monotonic () -. h0 in
  let events = Sim.dispatched_total sim - d0 in
  let g1 = Gc.quick_stat () in
  let t0 = match p.t0 with Some t0 -> t0 | None -> h0 in
  p.t0 <- Some t0;
  p.slices_rev <-
    {
      s_end = until;
      s_host_t0 = h0 -. t0;
      s_wall = dt;
      s_events = events;
      s_gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
      s_gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
      s_gc_promoted_w = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    }
    :: p.slices_rev;
  p.n_slices <- p.n_slices + 1;
  p.tot_events <- p.tot_events + events;
  p.tot_wall <- p.tot_wall +. dt;
  if until > p.max_end then p.max_end <- until

let run p sim ~until =
  let stride = Sim.lookahead sim in
  p.shards <- Sim.n_shards sim;
  p.lookahead <- stride;
  if stride <= 0.0 || not (Float.is_finite until) then slice p sim ~until
  else begin
    let continue = ref true in
    while !continue do
      let w_end = Float.min (Sim.now sim +. stride) until in
      slice p sim ~until:w_end;
      continue := w_end < until
    done
  end

let slices p = List.rev p.slices_rev

(* ------------------------------------------------------------------ *)
(* Report derivation                                                   *)
(* ------------------------------------------------------------------ *)

type report = {
  rp_shards : int;
  rp_slices : int;
  rp_lookahead : float;
  rp_wall_s : float;
  rp_sim_end_s : float;
  rp_events : int;
  rp_events_per_slice : float;
  rp_gc_minor : int;
  rp_gc_major : int;
  rp_gc_promoted_w : float;
}

let gc_minor p = List.fold_left (fun acc s -> acc + s.s_gc_minor) 0 p.slices_rev

let report p =
  {
    rp_shards = p.shards;
    rp_slices = p.n_slices;
    rp_lookahead = p.lookahead;
    rp_wall_s = p.tot_wall;
    rp_sim_end_s = p.max_end;
    rp_events = p.tot_events;
    rp_events_per_slice =
      (if p.n_slices = 0 then 0.0
       else float_of_int p.tot_events /. float_of_int p.n_slices);
    rp_gc_minor = gc_minor p;
    rp_gc_major = List.fold_left (fun acc s -> acc + s.s_gc_major) 0 p.slices_rev;
    rp_gc_promoted_w =
      List.fold_left (fun acc s -> acc +. s.s_gc_promoted_w) 0.0 p.slices_rev;
  }

(* ------------------------------------------------------------------ *)
(* Obs registry reuse                                                  *)
(* ------------------------------------------------------------------ *)

let register p registry =
  Registry.gauge_fn registry ~name:"massbft_prof_wall_seconds"
    ~help:"Host wall-clock seconds spent in profiled scheduler slices" []
    (fun () -> p.tot_wall);
  Registry.counter_fn registry ~name:"massbft_prof_slices_total"
    ~help:"Scheduler slices profiled" [] (fun () -> p.n_slices);
  Registry.counter_fn registry ~name:"massbft_prof_events_total"
    ~help:"Events dispatched during profiled slices" [] (fun () ->
      p.tot_events);
  Registry.counter_fn registry ~name:"massbft_prof_gc_minor_total"
    ~help:"Minor collections sampled during profiled slices" [] (fun () ->
      gc_minor p)
