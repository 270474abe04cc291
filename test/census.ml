(* A memory census of a running deployment, for tests: reachable words
   per engine component, plus the checks that finished per-entry state
   was released. It walks the heap it measures, so it stays off every
   hot path.

   PBFT and Raft replicas are not walked: their callbacks reach the
   whole engine, so [Obj.reachable_words] on one would count everything.
   They are represented by their O(1) retained-vote and retained-ack
   counters instead. *)

module N = Massbft.Node_ctx
module Replication = Massbft.Replication
module Transfer_plan = Massbft.Transfer_plan
module Pbft = Massbft_consensus.Pbft
module Raft = Massbft_consensus.Raft

type t = {
  words : (string * int) list;
      (* reachable words per component; the first row is the whole
         engine context, and rows may share data with each other *)
  pbft_votes : int;  (* voter ids held by every replica's vote sets *)
  raft_acks : int;  (* ack sets held by every leader-side Raft replica *)
  rebuilding : int;  (* rebuild states in progress *)
  rebuilt : int;  (* done marks of finished rebuilds *)
  unreleased_rebuilds : int;
      (* in-progress states holding a complete genuine bucket: a finished
         rebuild that kept its buckets *)
  rebuilding_gauge : int;  (* the nodes' in-progress counters, summed *)
  decided_votes : int;  (* voter ids held by decided PBFT slots *)
  stale_acks : int;  (* non-empty ack sets at or below a commit index *)
}

let words x = Obj.reachable_words (Obj.repr x)
let per_node (c : N.t) f = Array.map (Array.map f) c.N.nodes
let per_leader (c : N.t) f = Array.map f c.N.leaders

let fold_nodes (c : N.t) f =
  Array.fold_left (Array.fold_left (fun acc node -> acc + f node)) 0 c.N.nodes

let fold_pbft c f =
  fold_nodes c (fun node -> match node.N.n_pbft with Some p -> f p | None -> 0)

let fold_rafts (c : N.t) f =
  Array.fold_left
    (fun acc (l : N.leader) -> Array.fold_left (fun acc r -> acc + f r) acc l.N.l_rafts)
    0 c.N.leaders

let count_rebuilds (c : N.t) pick =
  fold_nodes c (fun node ->
      N.Entry_tbl.fold (fun eid r acc -> if pick node eid r then acc + 1 else acc)
        node.N.n_rebuilds 0)

let genuine_bucket_complete c (node : N.node) eid = function
  | N.Rebuilt -> false
  | N.Rebuilding rs ->
      let plan =
        Replication.plan_between c ~src:eid.Massbft.Types.gid
          ~dst:node.N.n_addr.Massbft_sim.Topology.g
      in
      Massbft.Rebuild.Symbolic.bucket_size rs (N.entry_of c eid).N.digest
      >= plan.Transfer_plan.n_data

let take (c : N.t) =
  {
    words =
      [
        ("engine", words c);
        ("rebuild states", words (per_node c (fun n -> n.N.n_rebuilds)));
        ("content sets", words (per_node c (fun n -> n.N.n_content)));
        ("entry registry", words (c.N.entries, c.N.by_digest));
        ("VTS stamp tables", words (per_leader c (fun l -> l.N.l_ts)));
        ("ledgers", words (per_leader c (fun l -> l.N.l_ledger)));
        ("store", words c.N.shared_store);
        ("metrics", words c.N.metrics);
      ];
    pbft_votes = fold_pbft c Pbft.retained_votes;
    raft_acks = fold_rafts c Raft.retained_acks;
    rebuilding =
      count_rebuilds c (fun _ _ -> function N.Rebuilding _ -> true | N.Rebuilt -> false);
    rebuilt =
      count_rebuilds c (fun _ _ -> function N.Rebuilt -> true | N.Rebuilding _ -> false);
    unreleased_rebuilds = count_rebuilds c (genuine_bucket_complete c);
    rebuilding_gauge = fold_nodes c (fun node -> node.N.n_rebuilding);
    decided_votes = fold_pbft c Pbft.decided_votes;
    stale_acks =
      fold_rafts c (fun r ->
          List.length
            (List.filter
               (fun i -> Raft.acks_for r i <> [])
               (List.init (Raft.commit_index r) succ)));
  }

let mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

let to_string t =
  String.concat ""
    (List.map (fun (name, w) -> Printf.sprintf "%-18s %8.2f MB\n" name (mb w)) t.words
    @ [
        Printf.sprintf "PBFT votes held    %8d\nRaft ack sets held %8d\n" t.pbft_votes
          t.raft_acks;
        Printf.sprintf "rebuilds           %8d in progress, %d done\n" t.rebuilding t.rebuilt;
      ])
