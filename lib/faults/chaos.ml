(* The seeded chaos fuzzer: generate a random-but-valid fault schedule
   from an explicit Rng, run it against a deployment with the invariant
   checkers attached, and — when a schedule kills an invariant — shrink
   it by delta-debugging bisection to a minimal reproducer.

   The generator is system-aware. Group crashes, WAN message drops and
   partitions are only drawn for systems whose global phase can repair
   arbitrary loss (per-group Raft: anti-entropy re-ships, takeover +
   transfer-back per §V-C). GeoBFT has no global retransmission by
   design (Table I: it cannot survive a group crash), and Steward's
   single log stalls with its proposer, so for those systems the
   generator sticks to recoverable faults: delays, duplication,
   degradations, gray CPUs, and follower crashes. It also never crashes
   more than f nodes of any group, and never leaves a fault unhealed —
   so every generated schedule is one the system under test claims to
   tolerate, and any invariant violation is a real bug. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module Config = Massbft.Config
module Rng = Massbft_util.Rng
module Intmath = Massbft_util.Intmath
module F = Fault_spec
module A = Massbft_adversary.Adv_spec
module Adversary = Massbft_adversary.Adversary
module Evidence = Massbft_adversary.Evidence
module R = Massbft_reconfig.Reconfig_spec
module Reconfig = Massbft_reconfig.Reconfig

(* ------------------------------------------------------------------ *)
(* Schedule generation                                                 *)
(* ------------------------------------------------------------------ *)

(* Millisecond quantization keeps the text form round-trippable. *)
let q t = Float.round (t *. 1000.0) /. 1000.0

let gen_schedule rng ~(cfg : Config.t) ~(spec : Topology.spec) ~duration =
  let gs = spec.Topology.group_sizes in
  let ng = Array.length gs in
  let heavy =
    Config.global_of cfg.Config.system = Config.Per_group_raft && ng >= 3
  in
  let t_lo = 0.5 and t_hi = Float.max 1.0 (0.4 *. duration) in
  let rt () = q (t_lo +. Rng.float rng (t_hi -. t_lo)) in
  let win lo hi = q (lo +. Rng.float rng (hi -. lo)) in
  let pick_g () = Rng.int rng ng in
  let pick_link () =
    let s = pick_g () in
    (s, (s + 1 + Rng.int rng (ng - 1)) mod ng)
  in
  let cls () =
    match Rng.int rng 3 with 0 -> F.Any | 1 -> F.Bulk | _ -> F.Control
  in
  (* Never more than f concurrently-faulty nodes per group; at most one
     heavy fault (leader crash / group crash / partition) per schedule
     so recoveries never compound. *)
  let crashed = Array.make ng [] in
  let heavy_used = ref false in
  let events = ref [] in
  let add at fault = events := { F.at; fault } :: !events in
  let gen_slow_cpu () =
    let g = pick_g () in
    let n = Rng.int rng gs.(g) in
    add (rt ())
      (F.Slow_cpu
         {
           addr = { Topology.g; n };
           factor = float_of_int (2 + Rng.int rng 6);
           for_s = win 1.0 3.0;
         })
  in
  let n_faults = 2 + Rng.int rng 4 in
  for _ = 1 to n_faults do
    match Rng.int rng (if heavy then 9 else 6) with
    | 0 -> gen_slow_cpu ()
    | 1 ->
        add (rt ())
          (F.Wan_degrade
             {
               g = pick_g ();
               factor = float_of_int (5 + Rng.int rng 10) /. 20.0;
               for_s = win 1.0 3.0;
             })
    | 2 ->
        add (rt ())
          (F.Lan_degrade
             {
               g = pick_g ();
               factor = float_of_int (5 + Rng.int rng 10) /. 20.0;
               for_s = win 1.0 2.0;
             })
    | 3 ->
        let src_g, dst_g = pick_link () in
        add (rt ())
          (F.Link_delay
             {
               src_g;
               dst_g;
               add_s = float_of_int (20 + Rng.int rng 80) /. 1000.0;
               cls = cls ();
               for_s = win 1.0 2.0;
             })
    | 4 ->
        let src_g, dst_g = pick_link () in
        add (rt ())
          (F.Link_dup
             {
               src_g;
               dst_g;
               copies = 1 + Rng.int rng 2;
               every = 1 + Rng.int rng 3;
               cls = cls ();
               for_s = win 1.0 2.0;
             })
    | 5 ->
        (* Follower crash + recover: allowed for every system. *)
        let g = pick_g () in
        let f = Intmath.pbft_f gs.(g) in
        let candidates =
          List.filter
            (fun n -> not (List.mem n crashed.(g)))
            (List.init (gs.(g) - 1) (fun i -> i + 1))
        in
        if List.length crashed.(g) < f && candidates <> [] then begin
          let n = List.nth candidates (Rng.int rng (List.length candidates)) in
          crashed.(g) <- n :: crashed.(g);
          let at = rt () in
          add at (F.Crash_node { Topology.g; n });
          add (q (at +. win 1.0 2.0)) (F.Recover_node { Topology.g; n })
        end
        else gen_slow_cpu ()
    | 6 ->
        (* Acting-leader crash: exercises the PBFT view change and the
           engine's leader migration. *)
        let g = pick_g () in
        if
          (not !heavy_used)
          && crashed.(g) = []
          && Intmath.pbft_f gs.(g) >= 1
        then begin
          heavy_used := true;
          crashed.(g) <- [ 0 ];
          let at = rt () in
          add at (F.Crash_node { Topology.g; n = 0 });
          add (q (at +. win 2.0 3.5)) (F.Recover_node { Topology.g; n = 0 })
        end
        else gen_slow_cpu ()
    | 7 ->
        let g = pick_g () in
        if (not !heavy_used) && crashed.(g) = [] then begin
          heavy_used := true;
          crashed.(g) <- List.init gs.(g) (fun n -> n);
          let at = rt () in
          add at (F.Crash_group g);
          add (q (at +. win 1.0 2.0)) (F.Recover_group g)
        end
        else gen_slow_cpu ()
    | _ ->
        if not !heavy_used then begin
          heavy_used := true;
          if Rng.bool rng then
            add (rt ())
              (F.Partition { groups = [ pick_g () ]; for_s = win 0.5 1.5 })
          else
            let src_g, dst_g = pick_link () in
            add (rt ())
              (F.Link_drop
                 {
                   src_g;
                   dst_g;
                   every = 1 + Rng.int rng 4;
                   cls = cls ();
                   for_s = win 0.5 1.5;
                 })
        end
        else gen_slow_cpu ()
  done;
  F.sorted (List.rev !events)

(* ------------------------------------------------------------------ *)
(* Adversary-plan generation (the campaign's third axis)               *)
(* ------------------------------------------------------------------ *)

(* One named strategy drawn into a concrete timed plan, with any
   trigger faults the strategy needs to bite (split-votes only matters
   while a view change is in flight, so it rides on a leader
   crash+recover). Each plan compromises exactly one node per target
   group — within every group's f >= 1 tolerance — so, as with fault
   generation, a safety violation under a generated plan is a real bug.
   Liveness inside the attack window is not promised (a Byzantine
   leader may stall its group); windows always close, and the liveness
   watchdog only judges the post-heal run. *)
let gen_adversary rng ~(cfg : Config.t) ~(spec : Topology.spec) ~duration
    ~strategy =
  ignore cfg;
  let gs = spec.Topology.group_sizes in
  let ng = Array.length gs in
  let t_lo = 0.5 and t_hi = Float.max 1.0 (0.4 *. duration) in
  let rt () = q (t_lo +. Rng.float rng (t_hi -. t_lo)) in
  let win lo hi = q (lo +. Rng.float rng (hi -. lo)) in
  let g = Rng.int rng ng in
  let at = rt () in
  let for_s = win 1.5 3.0 in
  let follower () = { Topology.g; n = 1 + Rng.int rng (gs.(g) - 1) } in
  match strategy with
  | "equivocate" ->
      ([ { A.at; strategy = A.Equivocate { target = A.Leader g; for_s } } ], [])
  | "equivocate-raft" ->
      ( [
          {
            A.at;
            strategy = A.Equivocate_raft { target = A.Leader g; for_s };
          };
        ],
        [] )
  | "withhold" ->
      ([ { A.at; strategy = A.Withhold { target = A.Leader g; for_s } } ], [])
  | "split-votes" ->
      (* The compromised follower forks its view-change votes across
         the recovery the leader crash forces. *)
      let n = follower () in
      ( [ { A.at; strategy = A.Split_votes { target = A.Node n; for_s } } ],
        F.sorted
          [
            { F.at; fault = F.Crash_node { Topology.g; n = 0 } };
            {
              F.at = q (at +. win 1.5 2.5);
              fault = F.Recover_node { Topology.g; n = 0 };
            };
          ] )
  | "replay" ->
      ( [
          {
            A.at;
            strategy =
              A.Replay
                {
                  target = A.Leader g;
                  copies = 1 + Rng.int rng 2;
                  gap_s = q (float_of_int (50 + Rng.int rng 200) /. 1000.0);
                  for_s;
                };
          };
        ],
        [] )
  | "delay-valid" ->
      ( [
          {
            A.at;
            strategy =
              A.Delay_valid
                {
                  target = A.Node (follower ());
                  add_s = q (float_of_int (50 + Rng.int rng 250) /. 1000.0);
                  for_s;
                };
          };
        ],
        [] )
  | "tamper" ->
      ( [
          {
            A.at;
            strategy = A.Tamper { target = A.Node (follower ()); for_s };
          };
        ],
        [] )
  | s -> invalid_arg ("Chaos.gen_adversary: unknown strategy " ^ s)

(* ------------------------------------------------------------------ *)
(* Reconfiguration-scenario generation (the fourth campaign axis)      *)
(* ------------------------------------------------------------------ *)

let reconfig_kinds =
  [ "node-join"; "node-leave"; "leader-move"; "group-add"; "group-remove" ]

(* One named membership-change kind drawn into a concrete timed plan,
   plus the chaos that makes it a drill rather than a demo: joins get a
   50% chance of a mid-transfer crash of the joining hardware itself
   (exercising the state transfer's stall watchdog, donor rotation and
   capped backoff), the other kinds get light degradations. Every fault
   heals and no fault exceeds the evolving membership's tolerance, so a
   violation under a generated scenario is a real bug. The join-crash
   addresses refer to slots of the *provisioned* topology (the joining
   node is [gs.(g)], the joining group is [ng]) — [run_schedule]
   provisions before arming the injector, so those slots exist. *)
let gen_reconfig rng ~(cfg : Config.t) ~(spec : Topology.spec) ~duration ~kind
    =
  ignore cfg;
  let gs = spec.Topology.group_sizes in
  let ng = Array.length gs in
  let t_lo = 1.0 and t_hi = Float.max 1.5 (0.35 *. duration) in
  let at = q (t_lo +. Rng.float rng (t_hi -. t_lo)) in
  let win lo hi = q (lo +. Rng.float rng (hi -. lo)) in
  let g = Rng.int rng ng in
  let mid_transfer_crash addr =
    if Rng.bool rng then
      F.sorted
        [
          { F.at = q (at +. win 0.2 0.7); fault = F.Crash_node addr };
          { F.at = q (at +. win 1.2 2.2); fault = F.Recover_node addr };
        ]
    else []
  in
  let light_degrade target_g =
    if Rng.bool rng then
      [
        {
          F.at = q (at +. win 0.0 0.5);
          fault =
            F.Wan_degrade
              {
                g = target_g;
                factor = float_of_int (8 + Rng.int rng 8) /. 20.0;
                for_s = win 1.0 2.0;
              };
        };
      ]
    else []
  in
  match kind with
  | "node-join" ->
      ( [ { R.at; cmd = R.Add_node g } ],
        mid_transfer_crash { Topology.g; n = gs.(g) } )
  | "node-leave" -> (
      (* The validation floor: a group must keep n >= 4 after the
         retirement. *)
      match List.filter (fun g -> gs.(g) >= 5) (List.init ng Fun.id) with
      | [] ->
          invalid_arg
            "Chaos.gen_reconfig: node-leave needs a group of >= 5 nodes"
      | cs ->
          let g = List.nth cs (Rng.int rng (List.length cs)) in
          ([ { R.at; cmd = R.Remove_node g } ], light_degrade g))
  | "leader-move" ->
      let n = 1 + Rng.int rng (gs.(g) - 1) in
      ([ { R.at; cmd = R.Move_leader { Topology.g; n } } ], light_degrade g)
  | "group-add" ->
      let size = 4 + Rng.int rng 2 in
      ( [ { R.at; cmd = R.Add_group { size } } ],
        mid_transfer_crash { Topology.g = ng; n = 0 } )
  | "group-remove" ->
      if ng < 3 then
        invalid_arg "Chaos.gen_reconfig: group-remove needs >= 3 groups"
      else
        let g = 1 + Rng.int rng (ng - 1) in
        ([ { R.at; cmd = R.Remove_group g } ], light_degrade g)
  | k -> invalid_arg ("Chaos.gen_reconfig: unknown kind " ^ k)

(* ------------------------------------------------------------------ *)
(* Running one schedule                                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  schedule : F.schedule;
  adversary : A.plan;
  reconfig : R.plan;
  violations : Invariants.violation list;
  unaccountable : Invariants.violation list;
      (* violations not backed by a verified conflicting-signed pair *)
  evidence : Evidence.pair list;
  executed : int;
  injected : int;
  adv_injected : int;
  epochs : int;  (* reconfiguration boundaries executed *)
  transfer_retries : int;  (* state-transfer stall recoveries *)
  ran_until : float;
}

let run_schedule ?(duration = 10.0) ?liveness_bound_s ?trace ?registry
    ?(adversary = []) ?(reconfig = []) ~(spec : Topology.spec)
    ~(cfg : Config.t) schedule =
  (* Recovering from a healed group crash legitimately spans several
     election timeouts (takeover, catch-up, transfer-back), so the
     default stall bound scales with the configured timeout rather than
     asserting a fixed number. *)
  let liveness_bound_s =
    match liveness_bound_s with
    | Some b -> b
    | None -> Float.max 3.0 (4.0 *. cfg.Config.election_timeout_s)
  in
  let d =
    Deployment.build ?trace ?registry ~faults:schedule ~adversary ~reconfig
      ~spec ~cfg ()
  in
  let heal = Deployment.heal_time d in
  let inv = Deployment.invariants ~liveness_bound_s d in
  Deployment.start d;
  (* Run past the heal point far enough for the liveness watchdog to
     have a verdict. *)
  let until =
    if Float.is_finite heal then
      Float.max duration (heal +. liveness_bound_s +. 1.5)
    else duration
  in
  Invariants.attach inv;
  Sim.run d.sim ~until;
  Invariants.finalize inv;
  let violations = Deployment.violations d inv in
  let adv = d.adversary in
  let unaccountable =
    (* A violation is accounted for when it carries a conflict pair
       that verifies against the run's evidence log — the adversary was
       caught red-handed, not the protocol silently broken. Without an
       adversary every violation is unaccountable. *)
    List.filter
      (fun (v : Invariants.violation) ->
        match (v.Invariants.evidence, adv) with
        | Some p, Some a -> not (Evidence.verify (Adversary.evidence a) p)
        | _ -> true)
      violations
  in
  {
    schedule;
    adversary;
    reconfig;
    violations;
    unaccountable;
    evidence =
      (match adv with
      | Some a -> Evidence.conflicts (Adversary.evidence a)
      | None -> []);
    executed = Engine.entries_executed_total d.engine;
    injected = Injector.injected_total d.injector;
    adv_injected = (match adv with Some a -> Adversary.injected_total a | None -> 0);
    epochs = Reconfig.epochs d.controller;
    transfer_retries = Reconfig.transfer_retries d.controller;
    ran_until = until;
  }

let failed outcome = outcome.violations <> []

(* The CI pass criterion under an adversary: every run either upholds
   all invariants or pins each violation on a provably-equivocating
   node. *)
let accountable outcome = outcome.unaccountable = []

(* ------------------------------------------------------------------ *)
(* Schedule shrinking (delta debugging)                                *)
(* ------------------------------------------------------------------ *)

(* Classic ddmin over the event list: try dropping ever-finer chunks,
   keeping any reduction that still fails. [fails] is the oracle —
   normally a full re-run, but tests may substitute any predicate. *)
let shrink ~fails schedule =
  let drop_chunk lst ~start ~len =
    List.filteri (fun i _ -> i < start || i >= start + len) lst
  in
  let rec go n sched =
    let len = List.length sched in
    if len <= 1 then sched
    else begin
      let n = min n len in
      let chunk = (len + n - 1) / n in
      let rec try_chunks start =
        if start >= len then None
        else
          let reduced = drop_chunk sched ~start ~len:chunk in
          if reduced <> [] && fails reduced then Some reduced
          else try_chunks (start + chunk)
      in
      match try_chunks 0 with
      | Some reduced -> go (max 2 (n - 1)) reduced
      | None -> if n >= len then sched else go (min len (2 * n)) sched
    end
  in
  if fails schedule then go 2 schedule else schedule

(* ------------------------------------------------------------------ *)
(* Drill and campaign                                                  *)
(* ------------------------------------------------------------------ *)

let repro_line ?adversary ?reconfig ~seed ~(system : Config.system) () =
  Printf.sprintf "massbft drill --seed %Ld --system %s%s%s" seed
    (String.lowercase_ascii (Config.system_name system))
    (match reconfig with None -> "" | Some k -> " --reconfig " ^ k)
    (match adversary with None -> "" | Some s -> " --adversary " ^ s)

type drill_result = {
  seed : int64;
  system : Config.system;
  strategy : string option;  (* adversary axis point, if any *)
  reconfig_kind : string option;  (* reconfiguration axis point, if any *)
  outcome : outcome;
  shrunk : F.schedule option;
      (* minimal failing schedule, when the original failed *)
  shrunk_adversary : A.plan option;
      (* minimal failing adversary plan, when one was in play *)
}

let drill ?duration ?liveness_bound_s ?trace ?registry ?(shrink_failures = true)
    ?adversary ?reconfig ~spec ~cfg ~seed () =
  let rng = Rng.create seed in
  let gen_duration = Option.value ~default:10.0 duration in
  (* With an adversary strategy the drill goes all-in on it: the fault
     schedule carries only the strategy's trigger faults, so the attack
     window never compounds with unrelated random faults into a
     scenario beyond the system's claimed tolerance. A reconfiguration
     kind contributes its membership-change plan plus its own paired
     chaos; combined with an adversary, both land in the same run (the
     "Byzantine leader during a membership change" drill). *)
  let rplan, rfaults =
    match reconfig with
    | None -> ([], [])
    | Some kind -> gen_reconfig rng ~cfg ~spec ~duration:gen_duration ~kind
  in
  let schedule, plan =
    match adversary with
    | None ->
        if reconfig = None then
          (gen_schedule rng ~cfg ~spec ~duration:gen_duration, [])
        else (rfaults, [])
    | Some strategy ->
        let plan, triggers =
          gen_adversary rng ~cfg ~spec ~duration:gen_duration ~strategy
        in
        (F.sorted (rfaults @ triggers), plan)
  in
  let outcome =
    run_schedule ?duration ?liveness_bound_s ?trace ?registry ~adversary:plan
      ~reconfig:rplan ~spec ~cfg schedule
  in
  let rerun ~schedule ~plan =
    failed
      (run_schedule ?duration ?liveness_bound_s ~adversary:plan
         ~reconfig:rplan ~spec ~cfg schedule)
  in
  let shrunk, shrunk_adversary =
    if failed outcome && shrink_failures then begin
      (* ddmin each axis in turn: first the adversary plan against the
         full trigger schedule, then the schedule under the minimal
         plan. The reconfiguration plan is the scenario's identity and
         is never shrunk. *)
      let min_plan =
        if plan = [] then []
        else shrink ~fails:(fun p -> rerun ~schedule ~plan:p) plan
      in
      let min_sched =
        if schedule = [] then []
        else shrink ~fails:(fun s -> rerun ~schedule:s ~plan:min_plan) schedule
      in
      ( Some min_sched,
        (match adversary with None -> None | Some _ -> Some min_plan) )
    end
    else (None, None)
  in
  {
    seed;
    system = cfg.Config.system;
    strategy = adversary;
    reconfig_kind = reconfig;
    outcome;
    shrunk;
    shrunk_adversary;
  }

type campaign_result = {
  total : int;
  results : drill_result list;  (* in run order *)
  failures : drill_result list;
}

let campaign ?duration ?liveness_bound_s ?trace ?(shrink_failures = false)
    ?(systems = Config.all_systems) ?(adversaries = []) ?(reconfigs = [])
    ?on_run ~spec ~cfg ~seeds () =
  (* The axes: systems x seeds x adversary strategies x reconfiguration
     kinds. Empty strategy/kind lists keep the classic two-axis fault
     campaign; both together drill Byzantine behaviour during
     membership changes. *)
  let adv_axis =
    match adversaries with
    | [] -> [ None ]
    | strategies -> List.map Option.some strategies
  in
  let rec_axis =
    match reconfigs with
    | [] -> [ None ]
    | kinds -> List.map Option.some kinds
  in
  let results =
    List.concat_map
      (fun system ->
        List.concat_map
          (fun adversary ->
            List.concat_map
              (fun reconfig ->
                List.map
                  (fun seed ->
                    let r =
                      drill ?duration ?liveness_bound_s ?trace ~shrink_failures
                        ?adversary ?reconfig ~spec
                        ~cfg:{ cfg with Config.system } ~seed ()
                    in
                    (match on_run with Some f -> f r | None -> ());
                    r)
                  seeds)
              rec_axis)
          adv_axis)
      systems
  in
  {
    total = List.length results;
    results;
    failures = List.filter (fun r -> failed r.outcome) results;
  }

let pp_drill fmt r =
  let status =
    if failed r.outcome then
      Printf.sprintf "FAIL (%d violations%s)"
        (List.length r.outcome.violations)
        (if r.outcome.unaccountable = [] then ", all evidenced" else "")
    else "ok"
  in
  Format.fprintf fmt "%-9s seed=%-6Ld %s=%-2d%s executed=%-5d %s"
    (Config.system_name r.system)
    r.seed
    (match r.strategy with
    | None -> "faults"
    | Some s -> s)
    (List.length r.outcome.schedule + List.length r.outcome.adversary)
    (match r.reconfig_kind with
    | None -> ""
    | Some k -> Printf.sprintf " %s epochs=%d" k r.outcome.epochs)
    r.outcome.executed status
