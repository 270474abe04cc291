(* The one cluster builder (see deployment.mli for the order it fixes).
   The injector, adversary and invariant constructors schedule nothing,
   so they are created up front; only [Reconfig.arm] schedules here. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module A = Massbft_adversary.Adv_spec
module Adversary = Massbft_adversary.Adversary
module R = Massbft_reconfig.Reconfig_spec
module Reconfig = Massbft_reconfig.Reconfig

type t = {
  sim : Sim.t;
  topo : Topology.t;
  engine : Engine.t;
  controller : Reconfig.t;
  injector : Injector.t;
  adversary : Adversary.t option;
  reconfig : R.plan;
}

let build ?trace ?registry ?(faults = []) ?(adversary = []) ?(reconfig = [])
    ~spec ~cfg () =
  (* Each deployment allocates a full cluster; compact between them so
     long sweeps and campaigns stay within memory. *)
  Gc.compact ();
  (* A reconfiguration plan expands the topology up front: every slot
     the plan will ever activate is provisioned dark. An empty plan
     returns the spec unchanged, byte-identically. *)
  let provisioned =
    match R.provision ~spec reconfig with
    | Ok p -> p
    | Error e -> invalid_arg ("Deployment.build: bad reconfiguration plan: " ^ e)
  in
  let spec = provisioned.R.p_spec in
  (* One shard handle per physical group, dark slots included, so
     per-group event accounting and trace tracks stay separate. *)
  let ng = Array.length spec.Topology.group_sizes in
  let sim =
    Sim.create ~shards:ng ~lookahead:(Topology.min_wan_one_way spec) ()
  in
  let topo = Topology.create sim spec in
  let engine = Engine.create sim topo cfg in
  Option.iter (Engine.set_trace engine) trace;
  (* The controller arms before the engine starts: the dark slots must
     be crashed and the membership masks installed before the first
     batch timer fires. An empty plan arms nothing. *)
  let controller = Reconfig.arm engine provisioned in
  {
    sim;
    topo;
    engine;
    controller;
    injector =
      Injector.create ?trace ?registry ~spec ~schedule:faults engine sim topo;
    adversary =
      (match adversary with
      | [] -> None
      | plan -> Some (Adversary.create ?trace ?registry ~spec ~plan engine sim));
    reconfig;
  }

let start d =
  Engine.start d.engine;
  (* An empty schedule schedules nothing and installs no hook. *)
  Injector.arm d.injector;
  Option.iter Adversary.arm d.adversary

let heal_time d =
  (* A join is only "healed" once its state transfer lands and the
     admission epoch executes: each event gets an allowance past its
     start (6 s of state transfer for a join, 1.5 s otherwise) before the
     liveness watchdog starts judging. Events apply one at a time, so
     each starts at its time or when the previous one's allowance ends,
     whichever is later. *)
  let reconfig_heal =
    List.fold_left
      (fun h (e : R.event) ->
        Float.max h e.R.at
        +. match e.R.cmd with R.Add_node _ | R.Add_group _ -> 6.0 | _ -> 1.5)
      neg_infinity (R.sorted d.reconfig)
  in
  Float.max reconfig_heal
    (Float.max
       (Fault_spec.heal_time (Injector.schedule d.injector))
       (A.heal_time (Option.fold ~none:[] ~some:Adversary.plan d.adversary)))

let invariants ?liveness_bound_s ?heal_by d =
  let a = d.adversary in
  Invariants.create ?liveness_bound_s
    ~heal_by:(Option.value heal_by ~default:(heal_time d))
    ?compromised:(Option.map Adversary.is_compromised a)
    ?evidence:(Option.map Adversary.evidence a) d.engine d.sim

let violations d inv =
  (* The controller's epoch-aware end-of-run checks (boundary agreement
     across leaders, on-chain config records, join state-transfer
     equality) merge into the same stream the checkers feed. *)
  Invariants.violations inv
  @ List.map
      (fun (check, detail) ->
        { Invariants.at = Sim.now d.sim; check; detail; evidence = None })
      (Reconfig.final_violations d.controller)
