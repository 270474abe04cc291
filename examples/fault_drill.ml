(* Fault drill: the paper's §VI-E scenario as a narrative. An
   edge-computing deployment runs normally, then (1) two Byzantine
   nodes per data center start colluding — encoding tampered entries
   into chunks and flooding the exchange with them; then (2) an entire
   data center loses power; later (3) it comes back.

   The crash and the recovery are ordinary fault-schedule lines (the
   same DSL `massbft drill` shrinks failures into and `massbft run
   --faults FILE` replays), applied by the injector. The tampering is
   an adversary plan in the strategy DSL (`massbft run --adversary
   FILE` replays these too): a message-level interposer on each
   compromised node rewrites the chunks it sends, exactly what the
   node *says* rather than what the fabric does. The invariant
   checkers ride along, aware of which nodes are compromised: if a
   tampered chunk ever reached a ledger, or the honest survivors
   diverged, the drill would end with a violation report instead of a
   timeline.

   Run with:  dune exec examples/fault_drill.exe *)

module Sim = Massbft_sim.Sim
module Config = Massbft.Config
module Engine = Massbft.Engine
module Stats = Massbft_util.Stats
module Fault_spec = Massbft_faults.Fault_spec
module Deployment = Massbft_faults.Deployment
module Invariants = Massbft_faults.Invariants
module Adv_spec = Massbft_adversary.Adv_spec
module Adversary = Massbft_adversary.Adversary

let byz_at = 6.0
let crash_at = 12.0
let recover_at = 20.0
let until = 45.0

let schedule =
  Fault_spec.of_string
    (Printf.sprintf
       "# data center 0 loses power, later comes back\n\
        @%g crash-group g0\n\
        @%g recover-group g0\n"
       crash_at recover_at)

(* Two colluders per data center (f = 2 with seven nodes per group)
   start rewriting the chunks they disseminate at [byz_at] and never
   stop: `for 39` keeps the windows open to the end of the run. *)
let adversary =
  Adv_spec.of_string
    (Printf.sprintf
       "# two tampering colluders per data center\n\
        @%g tamper node:g0/n5 for 39\n\
        @%g tamper node:g0/n6 for 39\n\
        @%g tamper node:g1/n5 for 39\n\
        @%g tamper node:g1/n6 for 39\n\
        @%g tamper node:g2/n5 for 39\n\
        @%g tamper node:g2/n6 for 39\n"
       byz_at byz_at byz_at byz_at byz_at byz_at)

let () =
  let cfg =
    {
      (Config.default ~system:Config.Massbft
         ~workload:Massbft_workload.Workload.Ycsb_a ())
      with
      Config.workload_scale = 0.01;
      (* Modest batches: smaller entries let the recovered data center
         re-stream its crash gap within this demo's window. *)
      max_batch = 100;
      election_timeout_s = 1.0;
    }
  in
  let d =
    Deployment.build ~faults:schedule ~adversary
      ~spec:(Massbft_harness.Clusters.nationwide ()) ~cfg ()
  in
  (* heal_by stays at the fault schedule's horizon: the tampering never
     heals, and the point of the drill is that liveness returns anyway
     once the crashed data center is restored. *)
  let inv = Deployment.invariants ~heal_by:(Fault_spec.heal_time schedule) d in
  Deployment.start d;
  Invariants.attach inv;
  Sim.run d.sim ~until;
  Invariants.finalize inv;

  let m = Engine.metrics d.engine in
  (* Annotate rows by bucket index, not by float equality on the bucket
     start: the series reports txn_rate's 1 s buckets, and an injection
     time belongs to the bucket containing it. *)
  let bucket = 1.0 in
  let bucket_of tm = int_of_float (floor (tm /. bucket)) in
  print_endline "time    throughput   event";
  List.iter
    (fun (t, rate) ->
      let idx = bucket_of t in
      let event =
        if idx = bucket_of byz_at then
          "<- 2 Byzantine nodes/group start tampering with chunks"
        else if idx = bucket_of crash_at then "<- data center 0 loses power"
        else if idx = bucket_of recover_at then
          "<- data center 0 restored; leadership transfers back"
        else ""
      in
      Printf.printf "%5.0fs  %7.1f ktps  %s\n" t (rate /. 1000.0) event)
    (Stats.Timeseries.rate_series m.Massbft.Metrics.txn_rate);

  Printf.printf "\ntampered sends rewritten by the adversary: %d\n"
    (Adversary.injected_total (Option.get d.adversary));

  (* The checkers watched the whole run: cross-group chain agreement,
     honest-replica prefix agreement, monotone commit indexes,
     post-heal liveness, ledger integrity, execution determinism. *)
  Printf.printf "invariant checks: %d polls, %s\n"
    (Invariants.checks_run inv)
    (if Invariants.ok inv then "all green" else "VIOLATIONS:");
  List.iter
    (fun v -> print_endline ("  " ^ Invariants.violation_to_string v))
    (Invariants.violations inv);
  print_endline
    "(after the restore, data center 0 first streams back the entries it\n\
    \ missed -- bounded by its 20 Mbps downlinks -- and only then contributes\n\
    \ its own proposals again, so full throughput returns gradually)";
  if not (Invariants.ok inv) then exit 1
