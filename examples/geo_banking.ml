(* Geo-distributed banking: the paper's cross-border-cooperation
   scenario. Three bank data centers (the nationwide sites) each accept
   SmallBank transfers from local customers; MassBFT orders everything
   into one global order, and every site records that order in its own
   hash-chained ledger — with no site trusting any single node of
   another site. Aria executes the agreed order deterministically; the
   simulation executes each entry once, into one shared database.

   Exits 1 if any two sites' ledgers disagree on their common prefix or
   a ledger fails hash-chain verification.

   Run with:  dune exec examples/geo_banking.exe *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Config = Massbft.Config
module Engine = Massbft.Engine
module Ledger = Massbft_exec.Ledger
module Stats = Massbft_util.Stats

let () =
  let sim = Sim.create () in
  let topo = Topology.create sim (Massbft_harness.Clusters.nationwide ()) in
  let cfg =
    {
      (Config.default ~system:Config.Massbft
         ~workload:Massbft_workload.Workload.Smallbank ())
      with
      Config.workload_scale = 0.001 (* 1,000 accounts for the demo *);
    }
  in
  let engine = Engine.create sim topo cfg in
  Engine.start engine;
  Sim.run sim ~until:6.0;

  let m = Engine.metrics engine in
  Printf.printf "banking throughput: %.1f k transfers/s\n"
    (Massbft.Metrics.throughput_tps m ~duration:6.0 /. 1000.0);
  Printf.printf "overdrafts refused (logic aborts): %d\n"
    (Stats.Counter.get m.Massbft.Metrics.logic_aborted_txns);
  Printf.printf "conflicting transfers retried:      %d\n"
    (Stats.Counter.get m.Massbft.Metrics.conflicted_txns);

  (* What the sites agree on: each built its own hash-chained ledger of
     the global order. A site may lag, but every pair must share the
     whole of the shorter chain, block hash for block hash. *)
  let sites = [ 0; 1; 2 ] in
  let ledgers = List.map (fun g -> Engine.ledger_of engine ~gid:g) sites in
  Printf.printf "ledger height per site: %s\n"
    (String.concat " / "
       (List.map (fun l -> string_of_int (Ledger.height l)) ledgers));
  let l0 = List.hd ledgers in
  let agree =
    List.for_all
      (fun l ->
        Ledger.equal_prefix l0 l = min (Ledger.height l0) (Ledger.height l))
      ledgers
  in
  let intact = List.for_all Ledger.verify ledgers in
  Printf.printf "ledger heads: %s\n"
    (String.concat " "
       (List.map
          (fun l -> Massbft_util.Hexdump.short ~len:16 (Ledger.head_hash l))
          ledgers));
  Printf.printf "all sites agree on their common ledger prefix: %b\n" agree;
  Printf.printf "every tamper-evident chain verifies: %b\n" intact;
  Printf.printf "database fingerprint: %s\n"
    (Massbft_util.Hexdump.short ~len:16 (Engine.store_fingerprint engine));
  if not (agree && intact) then exit 1
