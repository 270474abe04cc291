(* The golden determinism fixture: a fixed seed-0 run of every
   Config.system on a small nationwide cluster, fingerprinted. The
   recorded files (test/golden/*.golden) were captured against the
   pre-refactor engine; test_engine.ml replays the same runs and
   asserts byte-identical fingerprints, so any behaviour change in the
   engine — message counts, scheduling order, execution order, store
   contents — fails the differential test. *)

module Sim = Massbft_sim.Sim
module Deployment = Massbft_faults.Deployment
module Config = Massbft.Config
module Engine = Massbft.Engine
module Metrics = Massbft.Metrics
module Types = Massbft.Types
module Stats = Massbft_util.Stats
module Clusters = Massbft_harness.Clusters
module Sampler = Massbft_obs.Sampler
module Trace = Massbft_trace.Trace
module Sha256 = Massbft_crypto.Sha256

type t = {
  system : Config.system;
  committed : int;
  entries : int;
  wan : int;
  lan : int;
  store : string;
  exports : string option;
      (* hex SHA-256 of the same run's [.prom] text then its Chrome trace
         JSON, taken by {!capture_exports}; [None] when not taken *)
  executed : (int * int) list array;  (* per group: (gid, seq) order *)
}

(* The small cluster the integration tests share: 3 groups x 4 nodes,
   tiny batches. *)
let small_cfg ?(system = Config.Massbft) () =
  {
    (Config.default ~system ()) with
    Config.max_batch = 40;
    pipeline = 4;
    workload_scale = 0.001;
  }

let small_spec ?group_sizes () =
  Clusters.nationwide ?group_sizes ~nodes_per_group:4 ()

(* Fixed capture parameters: the small cluster at seed 0, 6 simulated
   seconds. Changing any of these invalidates the recorded fixtures —
   re-run `dune exec test/golden_record.exe`. *)
let groups = 3
let until = 6.0
let cfg_of system = { (small_cfg ~system ()) with Config.seed = 0L }

(* [attach] receives the started deployment before the clock moves and
   [run] (default [Sim.run]) drives it — the seams no-op tests use to
   hang an (empty) adversary on the run, or to drive it with a
   profiler, and assert the fingerprint still matches the recorded
   golden. *)
let capture ?attach ?(run = Sim.run) ~system () =
  let d = Deployment.build ~spec:(small_spec ()) ~cfg:(cfg_of system) () in
  Deployment.start d;
  Option.iter (fun f -> f d) attach;
  run d.sim ~until;
  let eng = d.engine in
  {
    system;
    committed =
      Stats.Counter.get (Engine.metrics eng).Metrics.committed_txns;
    entries = Engine.entries_executed_total eng;
    wan = Engine.wan_bytes eng;
    lan = Engine.lan_bytes eng;
    store = Massbft_util.Hexdump.encode (Engine.store_fingerprint eng);
    exports = None;
    executed =
      Array.init groups (fun g ->
          List.map
            (fun (e : Types.entry_id) -> (e.Types.gid, e.Types.seq))
            (Engine.executed_ids eng ~gid:g));
  }

(* The exports digest comes from a second run of the same capture with a
   sampler and a trace sink attached, wired as [Runner.run] wires them.
   The sink's ring is kept small: the digest pins the trace's last
   16384 events, and the default ring would make this run several
   times slower. *)
let capture_exports ~system () =
  let registry = Massbft_obs.Registry.create () in
  let s = Sampler.create registry in
  let tr = Trace.create ~capacity:16384 () in
  let d =
    Deployment.build ~trace:tr ~registry ~spec:(small_spec ()) ~cfg:(cfg_of system) ()
  in
  Sampler.watch_sim s d.sim;
  Sampler.watch_topology s d.topo;
  Engine.set_obs d.engine s;
  Sampler.attach s d.sim;
  Deployment.start d;
  Sim.run d.sim ~until;
  Sha256.hex
    (Sha256.digest
       (Massbft_obs.Exposition.prometheus registry
       ^ Massbft_trace.Trace_export.to_chrome_json tr))

let file_of_system system =
  String.lowercase_ascii (Config.system_name system) ^ ".golden"

let to_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "system %s\n" (Config.system_name g.system));
  Buffer.add_string buf (Printf.sprintf "committed %d\n" g.committed);
  Buffer.add_string buf (Printf.sprintf "entries %d\n" g.entries);
  Buffer.add_string buf (Printf.sprintf "wan %d\n" g.wan);
  Buffer.add_string buf (Printf.sprintf "lan %d\n" g.lan);
  Buffer.add_string buf (Printf.sprintf "store %s\n" g.store);
  Option.iter
    (fun d -> Buffer.add_string buf (Printf.sprintf "exports %s\n" d))
    g.exports;
  Array.iteri
    (fun gid ids ->
      Buffer.add_string buf (Printf.sprintf "executed%d" gid);
      List.iter
        (fun (g, s) -> Buffer.add_string buf (Printf.sprintf " %d:%d" g s))
        ids;
      Buffer.add_char buf '\n')
    g.executed;
  Buffer.contents buf

let of_string text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let field_opt prefix =
    Option.map
      (fun l ->
        String.sub l
          (String.length prefix + 1)
          (String.length l - String.length prefix - 1))
      (List.find_opt
         (fun l ->
           String.length l > String.length prefix
           && String.sub l 0 (String.length prefix + 1) = prefix ^ " ")
         lines)
  in
  let field prefix =
    match field_opt prefix with
    | Some v -> v
    | None -> invalid_arg ("golden fixture: missing field " ^ prefix)
  in
  let ids_of s =
    if s = "" then []
    else
      List.map
        (fun pair ->
          match String.split_on_char ':' pair with
          | [ g; q ] -> (int_of_string g, int_of_string q)
          | _ -> invalid_arg "golden fixture: bad entry id")
        (String.split_on_char ' ' (String.trim s))
  in
  let system =
    let name = field "system" in
    match
      List.find_opt (fun s -> Config.system_name s = name) Config.all_systems
    with
    | Some s -> s
    | None -> invalid_arg ("golden fixture: unknown system " ^ name)
  in
  {
    system;
    committed = int_of_string (field "committed");
    entries = int_of_string (field "entries");
    wan = int_of_string (field "wan");
    lan = int_of_string (field "lan");
    store = field "store";
    exports = field_opt "exports";
    executed =
      Array.init groups (fun g -> ids_of (field (Printf.sprintf "executed%d" g)));
  }

let load file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text
