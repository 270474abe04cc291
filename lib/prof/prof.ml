module Sim = Massbft_sim.Sim
module Registry = Massbft_obs.Registry

(* Host-side self-profiling of the simulator's own execution.

   Everything the repo's other observability measures — traces, the
   sampler, saturation verdicts — lives in *simulated* time; this
   module accounts where the host's *wall-clock* goes while the
   simulator produces those simulated seconds. A profiled [Sim.run]
   advances in lookahead-wide slices and reports each one (wall time,
   events dispatched); the profiler adds GC deltas per slice and
   derives a ranked attribution.

   The design constraint is that profiling must not perturb the run:
   the hook (Sim.host_prof) never reads simulation state, never
   schedules events, and is invoked per *slice*, never per event.
   Dispatch order is untouched, so golden fixtures stay byte-identical
   with profiling on. *)

(* CLOCK_MONOTONIC via bechamel's noalloc stub, in seconds. *)
let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type slice = {
  s_end : float;  (* simulated time at the slice's end *)
  s_host_t0 : float;  (* host seconds since profiling started *)
  s_wall : float;
  s_events : int;
  s_gc_minor : int;  (* Gc.quick_stat deltas over the slice *)
  s_gc_major : int;
  s_gc_promoted_w : float;
}

type t = {
  clock : unit -> float;
  mutable shards : int;
  mutable lookahead : float;
  mutable attached : bool;
  mutable t0 : float option;  (* host time of the first slice's start *)
  mutable finished : float option;
  mutable slices_rev : slice list;
  mutable n_slices : int;
  mutable tot_events : int;
  mutable tot_wall : float;  (* sum of slice walls: attributed time *)
  mutable max_end : float;
  mutable gc_last : Gc.stat;
}

let create ?clock () =
  let clock = match clock with Some c -> c | None -> monotonic in
  {
    clock;
    shards = 1;
    lookahead = 0.0;
    attached = false;
    t0 = None;
    finished = None;
    slices_rev = [];
    n_slices = 0;
    tot_events = 0;
    tot_wall = 0.0;
    max_end = 0.0;
    gc_last = Gc.quick_stat ();
  }

let on_slice p ~until ~dt ~events =
  let t_now = p.clock () in
  if p.t0 = None then p.t0 <- Some (t_now -. dt);
  let t0 = Option.get p.t0 in
  let g = Gc.quick_stat () in
  let last = p.gc_last in
  p.gc_last <- g;
  p.slices_rev <-
    {
      s_end = until;
      s_host_t0 = t_now -. dt -. t0;
      s_wall = dt;
      s_events = events;
      s_gc_minor = g.Gc.minor_collections - last.Gc.minor_collections;
      s_gc_major = g.Gc.major_collections - last.Gc.major_collections;
      s_gc_promoted_w = g.Gc.promoted_words -. last.Gc.promoted_words;
    }
    :: p.slices_rev;
  p.n_slices <- p.n_slices + 1;
  p.tot_events <- p.tot_events + events;
  p.tot_wall <- p.tot_wall +. dt;
  if until > p.max_end then p.max_end <- until

let attach p sim =
  if p.attached then invalid_arg "Prof.attach: already attached";
  p.attached <- true;
  p.shards <- Sim.n_shards sim;
  p.lookahead <- Sim.lookahead sim;
  p.gc_last <- Gc.quick_stat ();
  Sim.set_prof sim
    (Some { Sim.hp_clock = p.clock; hp_seq = on_slice p })

let finish p =
  if p.finished = None then p.finished <- Some (p.clock ())

let slices p = List.rev p.slices_rev

(* ------------------------------------------------------------------ *)
(* Report derivation                                                   *)
(* ------------------------------------------------------------------ *)

type phase = { p_name : string; p_seconds : float; p_share : float }

type report = {
  rp_shards : int;
  rp_slices : int;
  rp_lookahead : float;
  rp_wall_s : float;
  rp_sim_end_s : float;
  rp_events : int;
  rp_events_per_slice : float;
  rp_attributed_s : float;
  rp_attributed_share : float;
  rp_wall_attribution : phase list;
  rp_gc_minor : int;
  rp_gc_major : int;
  rp_gc_promoted_w : float;
}

let report p =
  let t_end = match p.finished with Some t -> t | None -> p.clock () in
  let wall =
    match p.t0 with Some t0 -> Float.max (t_end -. t0) 1e-9 | None -> 0.0
  in
  let share s = if wall > 0.0 then s /. wall else 0.0 in
  let phase p_name p_seconds =
    { p_name; p_seconds; p_share = share p_seconds }
  in
  let unattr = Float.max (wall -. p.tot_wall) 0.0 in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 p.slices_rev in
  {
    rp_shards = p.shards;
    rp_slices = p.n_slices;
    rp_lookahead = p.lookahead;
    rp_wall_s = wall;
    rp_sim_end_s = p.max_end;
    rp_events = p.tot_events;
    rp_events_per_slice =
      (if p.n_slices = 0 then 0.0
       else float_of_int p.tot_events /. float_of_int p.n_slices);
    rp_attributed_s = p.tot_wall;
    rp_attributed_share = share p.tot_wall;
    rp_wall_attribution =
      List.sort
        (fun a b -> compare b.p_seconds a.p_seconds)
        [ phase "execute" p.tot_wall; phase "unattributed" unattr ];
    rp_gc_minor = sum (fun s -> s.s_gc_minor);
    rp_gc_major = sum (fun s -> s.s_gc_major);
    rp_gc_promoted_w =
      List.fold_left (fun acc s -> acc +. s.s_gc_promoted_w) 0.0 p.slices_rev;
  }

(* ------------------------------------------------------------------ *)
(* Obs registry reuse                                                  *)
(* ------------------------------------------------------------------ *)

let register p registry =
  Registry.gauge_fn registry ~name:"massbft_prof_phase_seconds"
    ~help:"Host wall-clock seconds accounted to a scheduler phase"
    [ ("phase", "execute") ]
    (fun () -> p.tot_wall);
  Registry.counter_fn registry ~name:"massbft_prof_slices_total"
    ~help:"Scheduler slices profiled" [] (fun () -> p.n_slices);
  Registry.counter_fn registry ~name:"massbft_prof_events_total"
    ~help:"Events dispatched during profiled slices" [] (fun () ->
      p.tot_events);
  Registry.counter_fn registry ~name:"massbft_prof_gc_minor_total"
    ~help:"Minor collections sampled during profiled slices" [] (fun () ->
      List.fold_left (fun acc s -> acc + s.s_gc_minor) 0 p.slices_rev)
