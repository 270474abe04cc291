(* Records the golden determinism fixtures under test/golden/: one file
   per Config.system with the seed-0 fingerprints of a fixed small
   cluster run (executed orders, store fingerprint, WAN/LAN bytes,
   committed transactions, and the digest of the run's metrics and
   trace exports). test_engine.ml asserts that the engine
   reproduces these files exactly, locking the refactored engine to the
   recorded behaviour.

   Usage: dune exec test/golden_record.exe -- <output-dir> *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Config = Massbft.Config
module Engine = Massbft.Engine
module Metrics = Massbft.Metrics
module Types = Massbft.Types
module Stats = Massbft_util.Stats
module Clusters = Massbft_harness.Clusters
module Golden = Golden_fixture

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  List.iter
    (fun system ->
      let g =
        { (Golden.capture ~system ()) with
          Golden.exports = Some (Golden.capture_exports ~system ()) }
      in
      let file = Filename.concat dir (Golden.file_of_system system) in
      let oc = open_out file in
      output_string oc (Golden.to_string g);
      close_out oc;
      Printf.printf "wrote %s (%d entries, %d committed)\n%!" file g.Golden.entries
        g.Golden.committed)
    Config.all_systems
