(* A memory census of a running deployment, for tests: reachable words
   per engine component, plus the checks that finished per-entry state
   was released. It walks the heap it measures, so it stays off every
   hot path.

   PBFT and Raft replicas are not walked: their callbacks reach the
   whole engine, so [Obj.reachable_words] on one would count everything.
   They are represented by their O(1) counters instead: retained votes,
   open slots and decided-digest words per PBFT replica, retained ack
   sets and log length per Raft replica. *)

module N = Massbft.Node_ctx
module Replication = Massbft.Replication
module Transfer_plan = Massbft.Transfer_plan
module Pbft = Massbft_consensus.Pbft
module Raft = Massbft_consensus.Raft
module Topology = Massbft_sim.Topology

type holder = { h_name : string; h_words : int; h_entries : int }
(* One holder of per-entry state: its words and the entries it indexes
   (a node's content and done bits with its in-progress rebuilds, and a
   leader's VTS marks, index every executed entry; a PBFT replica's
   decided digests index its group's proposed seqs). *)

type t = {
  words : (string * int) list;
      (* reachable words per component; the first row is the whole
         engine context, and rows may share data with each other *)
  pbft_votes : int;  (* voter ids held by every replica's vote sets *)
  pbft_open_slots : int;  (* undecided slots held by every replica *)
  max_open_slots : int;  (* the most open slots one replica holds *)
  pbft_decided_words : int;  (* decided-digest array words, all replicas *)
  raft_acks : int;  (* ack sets held by every leader-side Raft replica *)
  raft_log : int;  (* log entries held by every Raft replica *)
  rebuilding : int;  (* rebuild classifiers in progress *)
  rebuilt : int;  (* done marks of finished rebuilds *)
  unreleased_rebuilds : int;
      (* in-progress classifiers holding a complete genuine bucket: a
         finished rebuild that kept its buckets *)
  stale_acks : int;  (* non-empty ack sets at or below a commit index *)
  executed : int;  (* the most entries one leader has executed *)
  holders : holder list;
}

let words x = Obj.reachable_words (Obj.repr x)
let per_node (c : N.t) f = Array.map (Array.map f) c.N.nodes
let per_leader (c : N.t) f = Array.map f c.N.leaders

let fold_nodes (c : N.t) f =
  Array.fold_left (Array.fold_left (fun acc node -> acc + f node)) 0 c.N.nodes

let fold_pbft c f =
  fold_nodes c (fun node -> match node.N.n_pbft with Some p -> f p | None -> 0)

(* The leaders' axis state, read through the variants: one element per
   leader that holds it. *)
let leaders_with (c : N.t) f = List.filter_map f (Array.to_list c.N.leaders)

let raft_states c =
  leaders_with c (fun l ->
      match l.N.l_glob with
      | N.Per_group_raft r | N.Single_raft { raft = r; _ } -> Some (l, r)
      | N.Direct_broadcast _ -> None)

let awaiting_notes c =
  leaders_with c (fun l ->
      match l.N.l_glob with
      | N.Direct_broadcast { awaiting } -> Some (l, awaiting)
      | N.Per_group_raft _ | N.Single_raft _ -> None)

let steward_proposed c =
  leaders_with c (fun l ->
      match l.N.l_glob with
      | N.Single_raft { proposed; _ } -> Some (l, proposed)
      | N.Per_group_raft _ | N.Direct_broadcast _ -> None)

let accept_notes c =
  leaders_with c (fun l ->
      match l.N.l_ord with
      | N.Async_vts v -> Some (l, v.N.accept_notes)
      | N.Sync_rounds _ | N.Epoch_rounds _ | N.Global_log -> None)

let fold_rafts c f =
  List.fold_left
    (fun acc (_, (r : N.raft_state)) -> Array.fold_left (fun acc raft -> acc + f raft) acc r.N.rafts)
    0 (raft_states c)

let genuine_bucket_complete c (node : N.node) eid rs =
  let plan =
    Replication.plan_between c ~src:eid.Massbft.Types.gid ~dst:node.N.n_addr.Topology.g
  in
  Massbft.Rebuild.Symbolic.bucket_size rs (N.entry_of c eid).N.digest
  >= plan.Transfer_plan.n_data

let addr_name (a : Topology.addr) = Printf.sprintf "g%d/n%d" a.Topology.g a.Topology.n

let holders (c : N.t) ~executed =
  let nodes = List.concat_map Array.to_list (Array.to_list c.N.nodes) in
  List.map
    (fun (node : N.node) ->
      {
        h_name = "content, done and rebuild state of " ^ addr_name node.N.n_addr;
        h_words = words (node.N.n_content, node.N.n_rebuilt, node.N.n_rebuilding);
        h_entries = executed;
      })
    nodes
  @ List.map
      (fun ((l : N.leader), (r : N.raft_state)) ->
        {
          h_name = Printf.sprintf "Ts marks of leader %d" l.N.l_gid;
          h_words = words r.N.ts;
          h_entries = executed;
        })
      (raft_states c)
  @ List.map
      (fun ((l : N.leader), notes) ->
        {
          h_name = Printf.sprintf "accept notes of leader %d" l.N.l_gid;
          h_words = words notes;
          h_entries = executed;
        })
      (accept_notes c)
  @ List.map
      (fun ((l : N.leader), awaiting) ->
        {
          h_name = Printf.sprintf "receive notes of leader %d" l.N.l_gid;
          h_words = words awaiting;
          h_entries = executed;
        })
      (awaiting_notes c)
  @ List.filter_map
      (fun (node : N.node) ->
        Option.map
          (fun p ->
            let g = node.N.n_addr.Topology.g in
            {
              h_name = "decided digests of " ^ addr_name node.N.n_addr;
              h_words = Pbft.decided_words p;
              h_entries = c.N.leaders.(g).N.l_next_seq - 1;
            })
          node.N.n_pbft)
      nodes

(* A census row for state some leaders hold; none when no leader does. *)
let row name = function [] -> [] | held -> [ (name, words (Array.of_list held)) ]

let take (c : N.t) =
  let executed =
    Array.fold_left
      (fun m (l : N.leader) -> max m (Massbft_exec.Ledger.height l.N.l_ledger))
      0 c.N.leaders
  in
  {
    words =
      [
        ("engine", words c);
        ("rebuild states", words (per_node c (fun n -> n.N.n_rebuilding)));
        ("content bits", words (per_node c (fun n -> n.N.n_content)));
        ("done bits", words (per_node c (fun n -> n.N.n_rebuilt)));
        ("entry registry", words c.N.entries);
      ]
      @ row "Ts marks" (List.map (fun (_, (r : N.raft_state)) -> r.N.ts) (raft_states c))
      @ row "accept notes" (List.map snd (accept_notes c))
      @ row "receive notes" (List.map snd (awaiting_notes c))
      (* Steward's proposed set has no removal: reported, not bounded
         (ROADMAP, "One retirement point per entry"). *)
      @ row "Steward proposals" (List.map snd (steward_proposed c))
      @ [
        ("ledgers", words (per_leader c (fun l -> l.N.l_ledger)));
        ("store", words c.N.shared_store);
        ("metrics", words c.N.metrics);
      ];
    pbft_votes = fold_pbft c Pbft.retained_votes;
    pbft_open_slots = fold_pbft c Pbft.open_slots;
    max_open_slots =
      Array.fold_left
        (Array.fold_left (fun m (node : N.node) ->
             match node.N.n_pbft with Some p -> max m (Pbft.open_slots p) | None -> m))
        0 c.N.nodes;
    pbft_decided_words = fold_pbft c Pbft.decided_words;
    raft_acks = fold_rafts c Raft.retained_acks;
    raft_log = fold_rafts c Raft.log_length;
    rebuilding = fold_nodes c (fun node -> N.Entry_tbl.length node.N.n_rebuilding);
    rebuilt =
      fold_nodes c (fun node ->
          Array.fold_left (fun n b -> n + N.Bitset.cardinal b) 0 node.N.n_rebuilt);
    unreleased_rebuilds =
      fold_nodes c (fun node ->
          N.Entry_tbl.fold
            (fun eid rs n -> if genuine_bucket_complete c node eid rs then n + 1 else n)
            node.N.n_rebuilding 0);
    stale_acks =
      fold_rafts c (fun r ->
          List.length
            (List.filter
               (fun i -> Raft.acks_for r i <> [])
               (List.init (Raft.commit_index r) succ)));
    executed;
    holders = holders c ~executed;
  }

let mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

let to_string t =
  String.concat ""
    (List.map (fun (name, w) -> Printf.sprintf "%-18s %8.2f MB\n" name (mb w)) t.words
    @ [
        Printf.sprintf "PBFT votes held    %8d\nPBFT open slots    %8d (at most %d per replica)\n"
          t.pbft_votes t.pbft_open_slots t.max_open_slots;
        Printf.sprintf "PBFT decided words %8d\n" t.pbft_decided_words;
        Printf.sprintf "Raft ack sets held %8d\nRaft log entries   %8d\n" t.raft_acks
          t.raft_log;
        Printf.sprintf "rebuilds           %8d in progress, %d done\n" t.rebuilding t.rebuilt;
        Printf.sprintf "entries executed   %8d (most by one leader)\n" t.executed;
      ])
