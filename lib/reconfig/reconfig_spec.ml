(* The reconfiguration-plan DSL: typed membership-change commands with a
   stable one-line text form, so a plan travels exactly like a fault
   schedule (a CI artifact, a `massbft run --reconfig FILE`, a drill
   repro) and parses back into the same transition sequence. *)

module Topology = Massbft_sim.Topology

type command =
  | Add_node of int
      (* the group gains one node: provisioned spare slot, brought up,
         caught up by state transfer, activated in the next epoch *)
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

(* %g keeps the text form compact and round-trips every value the
   generator emits (times quantized to 1 ms). *)
let fl = Printf.sprintf "%g"

let addr_str (a : Topology.addr) =
  Printf.sprintf "g%d/n%d" a.Topology.g a.Topology.n

let command_to_string = function
  | Add_node g -> Printf.sprintf "add-node g%d" g
  | Remove_node g -> Printf.sprintf "remove-node g%d" g
  | Move_leader a -> "move-leader " ^ addr_str a
  | Add_group { size } -> Printf.sprintf "add-group size %d" size
  | Remove_group g -> Printf.sprintf "remove-group g%d" g

let event_to_string { at; cmd } =
  Printf.sprintf "@%s %s" (fl at) (command_to_string cmd)

let to_string plan =
  String.concat "" (List.map (fun e -> event_to_string e ^ "\n") plan)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse_float what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "bad %s %S" what s

let parse_int what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "bad %s %S" what s

let parse_gid s =
  if String.length s >= 2 && s.[0] = 'g' then
    parse_int "group" (String.sub s 1 (String.length s - 1))
  else fail "bad group %S (expected gN)" s

let parse_addr s =
  match String.index_opt s '/' with
  | Some i
    when i >= 2
         && s.[0] = 'g'
         && String.length s > i + 2
         && s.[i + 1] = 'n' ->
      let g = parse_int "group" (String.sub s 1 (i - 1)) in
      let n =
        parse_int "node" (String.sub s (i + 2) (String.length s - i - 2))
      in
      { Topology.g; n }
  | _ -> fail "bad address %S (expected gG/nN)" s

let rec kw_args = function
  | [] -> []
  | [ k ] -> fail "missing value for %S" k
  | k :: v :: rest -> (k, v) :: kw_args rest

let kw what args k =
  match List.assoc_opt k args with
  | Some v -> v
  | None -> fail "%s: missing %S" what k

let command_of_tokens = function
  | [ "add-node"; g ] -> Add_node (parse_gid g)
  | [ "remove-node"; g ] -> Remove_node (parse_gid g)
  | [ "move-leader"; a ] -> Move_leader (parse_addr a)
  | "add-group" :: rest ->
      let args = kw_args rest in
      Add_group { size = parse_int "size" (kw "add-group" args "size") }
  | [ "remove-group"; g ] -> Remove_group (parse_gid g)
  | tok :: _ -> fail "unknown command %S" tok
  | [] -> fail "empty command"

(* The wire form of a command (what rides inside an epoch-boundary
   entry's [conf] payload): a command line with no @TIME prefix. The
   tolerant keyword parser lets the controller append bookkeeping pairs
   — e.g. "add-group size 4 gid 3" pins the joining gid so every leader
   applies the same physical group. *)
let command_of_string s =
  command_of_tokens
    (List.filter
       (fun x -> x <> "")
       (String.split_on_char ' ' (String.trim s)))

let event_of_string line =
  match
    List.filter
      (fun s -> s <> "")
      (String.split_on_char ' ' (String.trim line))
  with
  | at :: rest when String.length at > 1 && at.[0] = '@' ->
      {
        at = parse_float "time" (String.sub at 1 (String.length at - 1));
        cmd = command_of_tokens rest;
      }
  | _ -> fail "bad event line %S (expected \"@TIME COMMAND ...\")" line

let of_string text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         let l = String.trim l in
         l <> "" && not (String.length l > 0 && l.[0] = '#'))
  |> List.map event_of_string

let sorted plan =
  List.stable_sort (fun a b -> Float.compare a.at b.at) plan

let last_time plan =
  List.fold_left (fun acc e -> Float.max acc e.at) 0.0 plan

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(* Walk the plan in time order, tracking the evolving membership:
   whole-group adds extend the gid space, node removes must keep the
   group PBFT-viable (n >= 4, so f >= 1), and the coordinator group 0
   (which anchors the global layer) can never leave. *)
let validate ~(group_sizes : int array) plan =
  let base_ng = Array.length group_sizes in
  let adds =
    List.length
      (List.filter (fun e -> match e.cmd with Add_group _ -> true | _ -> false)
         plan)
  in
  let ngmax = base_ng + adds in
  let act = Array.make (max 1 ngmax) 0 in
  Array.blit group_sizes 0 act 0 base_ng;
  let is_member = Array.make (max 1 ngmax) false in
  Array.fill is_member 0 base_ng true;
  let ng = ref base_ng in
  let members () =
    let c = ref 0 in
    for g = 0 to !ng - 1 do
      if is_member.(g) then incr c
    done;
    !c
  in
  let check_member what g =
    if g < 0 || g >= !ng then
      Error (Printf.sprintf "%s: group %d out of range" what g)
    else if not is_member.(g) then
      Error (Printf.sprintf "%s: group %d is not a member" what g)
    else Ok ()
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let check_cmd cmd =
    let what = kind_name cmd in
    match cmd with
    | Add_node g ->
        check_member what g >>= fun () ->
        act.(g) <- act.(g) + 1;
        Ok ()
    | Remove_node g ->
        check_member what g >>= fun () ->
        if act.(g) - 1 < 4 then
          Error
            (Printf.sprintf
               "remove_node: group %d would shrink below 4 nodes (f = 0)" g)
        else begin
          act.(g) <- act.(g) - 1;
          Ok ()
        end
    | Move_leader a ->
        check_member what a.Topology.g >>= fun () ->
        if a.Topology.n < 0 || a.Topology.n >= act.(a.Topology.g) then
          Error
            (Printf.sprintf "move_leader: node %s not an active slot"
               (addr_str a))
        else Ok ()
    | Add_group { size } ->
        if size < 4 then Error "add_group: size must be >= 4 (f >= 1)"
        else begin
          let g = !ng in
          incr ng;
          act.(g) <- size;
          is_member.(g) <- true;
          Ok ()
        end
    | Remove_group g ->
        check_member what g >>= fun () ->
        if g = 0 then Error "remove_group: group 0 is the global coordinator"
        else if members () - 1 < 2 then
          Error "remove_group: need at least 2 member groups"
        else begin
          is_member.(g) <- false;
          act.(g) <- 0;
          Ok ()
        end
  in
  List.fold_left
    (fun acc { at; cmd } ->
      acc >>= fun () ->
      if at < 0.0 || not (Float.is_finite at) then
        Error (Printf.sprintf "%s: negative time" (kind_name cmd))
      else check_cmd cmd)
    (Ok ()) (sorted plan)

(* ------------------------------------------------------------------ *)
(* Provisioning                                                        *)
(* ------------------------------------------------------------------ *)

type provisioned = {
  p_spec : Topology.spec;  (* expanded physical topology *)
  p_active : int array;  (* initial active node count per physical group *)
  p_member : bool array;  (* initial membership (false = provisioned ahead) *)
}

(* The simulated cluster is fixed at creation, so every slot a plan will
   ever activate is provisioned up front (and kept dark — crashed and
   masked out of every quorum — until its epoch). An empty plan returns
   the spec unchanged, byte-identically. *)
let provision ~(spec : Topology.spec) plan =
  let base_ng = Array.length spec.Topology.group_sizes in
  let adds =
    List.length
      (List.filter (fun e -> match e.cmd with Add_group _ -> true | _ -> false)
         plan)
  in
  let ngmax = base_ng + adds in
  let phys = Array.make (max 1 ngmax) 0 in
  let act = Array.make (max 1 ngmax) 0 in
  Array.blit spec.Topology.group_sizes 0 phys 0 base_ng;
  Array.blit spec.Topology.group_sizes 0 act 0 base_ng;
  let ng = ref base_ng in
  List.iter
    (fun { cmd; _ } ->
      match cmd with
      | Add_node g ->
          act.(g) <- act.(g) + 1;
          if act.(g) > phys.(g) then phys.(g) <- act.(g)
      | Remove_node g -> act.(g) <- act.(g) - 1
      | Move_leader _ -> ()
      | Add_group { size } ->
          let g = !ng in
          incr ng;
          act.(g) <- size;
          phys.(g) <- size
      | Remove_group g -> act.(g) <- 0)
    (sorted plan);
  if !ng = base_ng && Array.for_all2 ( = ) (Array.sub phys 0 base_ng) spec.Topology.group_sizes
  then
    {
      p_spec = spec;
      p_active = Array.copy spec.Topology.group_sizes;
      p_member = Array.make base_ng true;
    }
  else begin
    (* Appended groups need WAN RTTs: use the cluster's own matrix when
       it extends that far (e.g. nationwide has 7 sites), otherwise map
       the new gid onto an existing site, flooring same-site pairs at
       the cluster's minimum inter-group RTT so the sim's lookahead
       stays positive. *)
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
    {
      p_spec = { spec with Topology.group_sizes = Array.sub phys 0 !ng; rtt };
      p_active = Array.init !ng (fun g -> if g < base_ng then spec.Topology.group_sizes.(g) else 0);
      p_member = Array.init !ng (fun g -> g < base_ng);
    }
  end
