(* The reconfiguration-plan DSL: typed membership-change commands with a
   stable one-line text form, so a plan travels exactly like a fault
   schedule (a CI artifact, a `massbft run --reconfig FILE`, a drill
   repro) and parses back into the same transition sequence. [walk] is
   the plan's one interpretation: validation is its verdict, and
   provisioning sizes the topology and resolves each event's target
   from it. *)

module Topology = Massbft_sim.Topology
module T = Massbft_sim.Timed_line

type command =
  | Add_node of int
      (* the group gains one node: its next slot (a provisioned spare,
         or one an earlier remove retired), brought up, caught up by
         state transfer, activated in the next epoch *)
  | Remove_node of int
      (* the group retires its highest active slot (permanent crash) *)
  | Move_leader of Topology.addr
  | Add_group of { size : int }
      (* a whole new group joins (gid = next unused), with ledger state
         transfer and key-range resharding of the workload *)
  | Remove_group of int
      (* the group leaves the membership; its key range is reabsorbed *)

type event = { at : float; cmd : command }
type plan = event list

let kind_name = function
  | Add_node _ -> "add_node"
  | Remove_node _ -> "remove_node"
  | Move_leader _ -> "move_leader"
  | Add_group _ -> "add_group"
  | Remove_group _ -> "remove_group"

let kind_names = [ "add-node"; "remove-node"; "move-leader"; "add-group"; "remove-group" ]

let command_to_string = function
  | Add_node g -> Printf.sprintf "add-node g%d" g
  | Remove_node g -> Printf.sprintf "remove-node g%d" g
  | Move_leader a -> "move-leader " ^ Topology.addr_to_string a
  | Add_group { size } -> Printf.sprintf "add-group size %d" size
  | Remove_group g -> Printf.sprintf "remove-group g%d" g

let event_to_string { at; cmd } = T.line at (command_to_string cmd)
let to_string plan = T.write event_to_string plan

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let command_of_tokens = function
  | [] -> T.fail "empty command"
  | it :: args -> (
      match it with
      | "add-node" -> Add_node (T.arg it T.gid args)
      | "remove-node" -> Remove_node (T.arg it T.gid args)
      | "move-leader" -> Move_leader (T.arg it T.addr args)
      | "add-group" ->
          Add_group { size = T.int "size" (T.keywords it [ "size" ] args "size") }
      | "remove-group" -> Remove_group (T.arg it T.gid args)
      | _ -> T.fail "unknown command %S" it)

let of_string text = T.read (fun at toks -> { at; cmd = command_of_tokens toks }) text
let sorted plan = T.sorted (fun e -> e.at) plan

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

(* What an event does to the fleet, resolved against the membership the
   earlier events leave behind. The controller applies events one at a
   time in plan order, so this view is exact at every trigger and flip. *)
type target =
  | Activate of Topology.addr  (* add-node: the slot it powers up *)
  | Retire of Topology.addr  (* remove-node: the highest active slot *)
  | Lead of Topology.addr  (* move-leader *)
  | Admit of { gid : int; size : int }  (* add-group: the next unused gid *)
  | Expel of int  (* remove-group *)

type step = {
  event : event;
  target : target;
  members : int list;  (* member gids after the event, ascending *)
}

(* The one interpretation of a plan: walk it in time order, tracking the
   evolving membership. Node removes must keep the group PBFT-viable
   (n >= 4, so f >= 1), the coordinator group 0 (which anchors the
   global layer) can never leave, and at least two member groups stay.
   Returns the resolved steps and each group's physical size (the most
   slots it ever has active), or the first invalid event's reason. *)
let walk ~(group_sizes : int array) plan =
  let base_ng = Array.length group_sizes in
  let plan = sorted plan in
  let cap = base_ng + List.length plan in
  let act = Array.make cap 0 and phys = Array.make cap 0 in
  Array.blit group_sizes 0 act 0 base_ng;
  Array.blit group_sizes 0 phys 0 base_ng;
  let ng = ref base_ng and members = ref (List.init base_ng Fun.id) in
  let ( >>= ) = T.( >>= ) in
  let check_member what g =
    T.check_group what ~ng:!ng g >>= fun () ->
    if not (List.mem g !members) then
      Error (Printf.sprintf "%s: group %d is not a member" what g)
    else Ok ()
  in
  let check cmd =
    let what = kind_name cmd in
    match cmd with
    | Add_node g -> check_member what g
    | Remove_node g ->
        check_member what g >>= fun () ->
        if act.(g) - 1 < 4 then
          Error
            (Printf.sprintf
               "remove_node: group %d would shrink below 4 nodes (f = 0)" g)
        else Ok ()
    | Move_leader a ->
        check_member what a.Topology.g >>= fun () ->
        if a.Topology.n < 0 || a.Topology.n >= act.(a.Topology.g) then
          Error
            (Printf.sprintf "move_leader: node %s not an active slot"
               (Topology.addr_to_string a))
        else Ok ()
    | Add_group { size } ->
        if size < 4 then Error "add_group: size must be >= 4 (f >= 1)" else Ok ()
    | Remove_group g ->
        check_member what g >>= fun () ->
        if g = 0 then Error "remove_group: group 0 is the global coordinator"
        else if List.length !members - 1 < 2 then
          Error "remove_group: need at least 2 member groups"
        else Ok ()
  in
  let resolve = function
    | Add_node g ->
        let n = act.(g) in
        act.(g) <- n + 1;
        phys.(g) <- max phys.(g) (n + 1);
        Activate { Topology.g; n }
    | Remove_node g ->
        act.(g) <- act.(g) - 1;
        Retire { Topology.g; n = act.(g) }
    | Move_leader a -> Lead a
    | Add_group { size } ->
        let gid = !ng in
        incr ng;
        act.(gid) <- size;
        phys.(gid) <- size;
        members := !members @ [ gid ];
        Admit { gid; size }
    | Remove_group g ->
        act.(g) <- 0;
        members := List.filter (( <> ) g) !members;
        Expel g
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc, Array.sub phys 0 !ng)
    | event :: rest -> (
        match
          T.check_time (kind_name event.cmd) event.at >>= fun () -> check event.cmd
        with
        | Error e -> Error e
        | Ok () ->
            let target = resolve event.cmd in
            go ({ event; target; members = !members } :: acc) rest)
  in
  go [] plan

let validate ~group_sizes plan = Result.map ignore (walk ~group_sizes plan)

(* ------------------------------------------------------------------ *)
(* Provisioning                                                        *)
(* ------------------------------------------------------------------ *)

type provisioned = {
  p_spec : Topology.spec;  (* expanded physical topology *)
  p_active : int array;  (* initial active node count per physical group *)
  p_member : bool array;  (* initial membership (false = provisioned ahead) *)
  p_steps : step array;  (* the plan's events, resolved, in time order *)
}

(* The simulated cluster is fixed at creation, so every slot a plan will
   ever activate is provisioned up front (and kept dark — crashed and
   masked out of every quorum — until its epoch). An empty plan returns
   the spec unchanged, byte-identically. *)
let provision ~(spec : Topology.spec) plan =
  let base = spec.Topology.group_sizes in
  let base_ng = Array.length base in
  Result.map
    (fun (steps, phys) ->
      let ng = Array.length phys in
      let p_spec =
        if phys = base then spec
        else begin
          (* Appended groups need WAN RTTs: use the cluster's own matrix
             when it extends that far (e.g. nationwide has 7 sites),
             otherwise map the new gid onto an existing site, flooring
             same-site pairs at the cluster's minimum inter-group RTT so
             the sim's lookahead stays positive. *)
          let base_rtt = spec.Topology.rtt in
          let floor_rtt =
            let m = ref infinity in
            for g = 0 to base_ng - 1 do
              for h = 0 to base_ng - 1 do
                if g <> h then m := Float.min !m (base_rtt g h)
              done
            done;
            if Float.is_finite !m then !m else 0.05
          in
          let rtt g h =
            if g = h then 0.0
            else
              match base_rtt g h with
              | r -> r
              | exception Invalid_argument _ ->
                  let a = g mod base_ng and b = h mod base_ng in
                  if a = b then floor_rtt else base_rtt a b
          in
          { spec with Topology.group_sizes = phys; rtt }
        end
      in
      {
        p_spec;
        p_active = Array.init ng (fun g -> if g < base_ng then base.(g) else 0);
        p_member = Array.init ng (fun g -> g < base_ng);
        p_steps = Array.of_list steps;
      })
    (walk ~group_sizes:base plan)
