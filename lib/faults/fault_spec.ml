(* The fault-schedule DSL: typed fault specs with a stable one-line
   text form, so a failing chaos schedule travels as a few readable
   lines (a CI artifact, a bug report, a `massbft drill` repro) and
   parses back into exactly the same injection. *)

module Topology = Massbft_sim.Topology
module T = Massbft_sim.Timed_line

type service_class = Any | Bulk | Control

let class_name = function Any -> "any" | Bulk -> "bulk" | Control -> "control"

let class_of_name = function
  | "any" -> Some Any
  | "bulk" -> Some Bulk
  | "control" -> Some Control
  | _ -> None

type fault =
  | Crash_node of Topology.addr
  | Recover_node of Topology.addr
  | Crash_group of int
  | Recover_group of int
  | Partition of { groups : int list; for_s : float }
  | Link_drop of {
      src_g : int;
      dst_g : int;
      every : int;
      cls : service_class;
      for_s : float;
    }
  | Link_delay of {
      src_g : int;
      dst_g : int;
      add_s : float;
      cls : service_class;
      for_s : float;
    }
  | Link_dup of {
      src_g : int;
      dst_g : int;
      copies : int;
      every : int;
      cls : service_class;
      for_s : float;
    }
  | Wan_degrade of { g : int; factor : float; for_s : float }
  | Lan_degrade of { g : int; factor : float; for_s : float }
  | Slow_cpu of { addr : Topology.addr; factor : float; for_s : float }

type event = { at : float; fault : fault }
type schedule = event list

let kind_name = function
  | Crash_node _ -> "crash_node"
  | Recover_node _ -> "recover_node"
  | Crash_group _ -> "crash_group"
  | Recover_group _ -> "recover_group"
  | Partition _ -> "partition"
  | Link_drop _ -> "link_drop"
  | Link_delay _ -> "link_delay"
  | Link_dup _ -> "link_dup"
  | Wan_degrade _ -> "wan_degrade"
  | Lan_degrade _ -> "lan_degrade"
  | Slow_cpu _ -> "slow_cpu"

let window_of = function
  | Partition { for_s; _ }
  | Link_drop { for_s; _ }
  | Link_delay { for_s; _ }
  | Link_dup { for_s; _ }
  | Wan_degrade { for_s; _ }
  | Lan_degrade { for_s; _ }
  | Slow_cpu { for_s; _ } ->
      Some for_s
  | Crash_node _ | Recover_node _ | Crash_group _ | Recover_group _ -> None

let fault_to_string f =
  let args =
    match f with
    | Crash_node a | Recover_node a -> Topology.addr_to_string a
    | Crash_group g | Recover_group g -> Printf.sprintf "g%d" g
    | Partition { groups; _ } ->
        String.concat "," (List.map (Printf.sprintf "g%d") groups)
    | Link_drop { src_g; dst_g; every; cls; _ } ->
        Printf.sprintf "g%d->g%d every %d class %s" src_g dst_g every
          (class_name cls)
    | Link_delay { src_g; dst_g; add_s; cls; _ } ->
        Printf.sprintf "g%d->g%d add %s class %s" src_g dst_g (T.fl add_s)
          (class_name cls)
    | Link_dup { src_g; dst_g; copies; every; cls; _ } ->
        Printf.sprintf "g%d->g%d copies %d every %d class %s" src_g dst_g
          copies every (class_name cls)
    | Wan_degrade { g; factor; _ } | Lan_degrade { g; factor; _ } ->
        Printf.sprintf "g%d factor %s" g (T.fl factor)
    | Slow_cpu { addr; factor; _ } ->
        Printf.sprintf "%s factor %s" (Topology.addr_to_string addr) (T.fl factor)
  in
  T.item_name (kind_name f) ^ " " ^ args
  ^ match window_of f with Some w -> " for " ^ T.fl w | None -> ""

let event_to_string { at; fault } = T.line at (fault_to_string fault)
let to_string sched = T.write event_to_string sched

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_link s =
  match
    String.index_opt s '-' |> Option.map (fun i -> (i, String.length s))
  with
  | Some (i, len) when len > i + 2 && s.[i + 1] = '>' ->
      (T.gid (String.sub s 0 i), T.gid (String.sub s (i + 2) (len - i - 2)))
  | _ -> T.fail "bad link %S (expected gA->gB)" s

let parse_class s =
  match class_of_name s with
  | Some c -> c
  | None -> T.fail "bad service class %S" s

let fault_of_tokens = function
  | [] -> T.fail "empty fault"
  | it :: args -> (
      let windowed parse keys = T.args it parse ("for" :: keys) args in
      let dur kw = T.float "duration" (kw "for") in
      match it with
      | "crash-node" -> Crash_node (T.arg it T.addr args)
      | "recover-node" -> Recover_node (T.arg it T.addr args)
      | "crash-group" -> Crash_group (T.arg it T.gid args)
      | "recover-group" -> Recover_group (T.arg it T.gid args)
      | "partition" ->
          let groups, kw =
            windowed (fun s -> List.map T.gid (String.split_on_char ',' s)) []
          in
          Partition { groups; for_s = dur kw }
      | "link-drop" ->
          let (src_g, dst_g), kw = windowed parse_link [ "every"; "class" ] in
          Link_drop
            {
              src_g;
              dst_g;
              every = T.int "every" (kw "every");
              cls = parse_class (kw "class");
              for_s = dur kw;
            }
      | "link-delay" ->
          let (src_g, dst_g), kw = windowed parse_link [ "add"; "class" ] in
          Link_delay
            {
              src_g;
              dst_g;
              add_s = T.float "delay" (kw "add");
              cls = parse_class (kw "class");
              for_s = dur kw;
            }
      | "link-dup" ->
          let (src_g, dst_g), kw =
            windowed parse_link [ "copies"; "every"; "class" ]
          in
          Link_dup
            {
              src_g;
              dst_g;
              copies = T.int "copies" (kw "copies");
              every = T.int "every" (kw "every");
              cls = parse_class (kw "class");
              for_s = dur kw;
            }
      | "wan-degrade" | "lan-degrade" ->
          let g, kw = windowed T.gid [ "factor" ] in
          let factor = T.float "factor" (kw "factor") in
          if it = "wan-degrade" then Wan_degrade { g; factor; for_s = dur kw }
          else Lan_degrade { g; factor; for_s = dur kw }
      | "slow-cpu" ->
          let addr, kw = windowed T.addr [ "factor" ] in
          Slow_cpu
            { addr; factor = T.float "factor" (kw "factor"); for_s = dur kw }
      | _ -> T.fail "unknown fault %S" it)

let of_string text =
  T.read (fun at toks -> { at; fault = fault_of_tokens toks }) text

(* ------------------------------------------------------------------ *)
(* Validation and schedule queries                                     *)
(* ------------------------------------------------------------------ *)

let validate ~(group_sizes : int array) sched =
  let ( >>= ) = T.( >>= ) in
  let ng = Array.length group_sizes in
  let link what ~src_g ~dst_g ~for_s =
    T.check_group what ~ng src_g >>= fun () ->
    T.check_group what ~ng dst_g >>= fun () -> T.check_window what for_s
  in
  let check_fault f =
    let what = kind_name f in
    match f with
    | Crash_node a | Recover_node a -> T.check_addr what ~group_sizes a
    | Crash_group g | Recover_group g -> T.check_group what ~ng g
    | Partition { groups; for_s } ->
        T.check_window what for_s >>= fun () ->
        if groups = [] then Error "partition: empty group list"
        else T.all (T.check_group what ~ng) groups
    | Link_drop { src_g; dst_g; every; for_s; _ } ->
        link what ~src_g ~dst_g ~for_s >>= fun () ->
        if every < 1 then Error "link-drop: every must be >= 1"
        else if src_g = dst_g then Error "link-drop: WAN links only"
        else Ok ()
    | Link_delay { src_g; dst_g; add_s; for_s; _ } ->
        link what ~src_g ~dst_g ~for_s >>= fun () ->
        if add_s <= 0.0 || not (Float.is_finite add_s) then
          Error "link-delay: add must be positive"
        else if src_g = dst_g then Error "link-delay: WAN links only"
        else Ok ()
    | Link_dup { src_g; dst_g; copies; every; for_s; _ } ->
        link what ~src_g ~dst_g ~for_s >>= fun () ->
        if copies < 1 then Error "link-dup: copies must be >= 1"
        else if every < 1 then Error "link-dup: every must be >= 1"
        else if src_g = dst_g then Error "link-dup: WAN links only"
        else Ok ()
    | Wan_degrade { g; factor; for_s } | Lan_degrade { g; factor; for_s } ->
        T.check_group what ~ng g >>= fun () ->
        T.check_window what for_s >>= fun () ->
        if factor > 0.0 && factor <= 1.0 then Ok ()
        else Error (what ^ ": factor must be in (0, 1]")
    | Slow_cpu { addr; factor; for_s } ->
        T.check_addr what ~group_sizes addr >>= fun () ->
        T.check_window what for_s >>= fun () ->
        if factor >= 1.0 && Float.is_finite factor then Ok ()
        else Error "slow-cpu: factor must be >= 1"
  in
  T.all
    (fun { at; fault } ->
      T.check_time (kind_name fault) at >>= fun () -> check_fault fault)
    sched

(* When has every injected fault healed? Crashes heal at their matching
   recover event (infinity if never recovered — disables the liveness
   watchdog); window faults heal when their window closes. *)
let heal_time sched =
  let recover_at pred from =
    List.fold_left
      (fun acc { at; fault } ->
        if at >= from && pred fault then Float.min acc at else acc)
      infinity sched
  in
  List.fold_left
    (fun acc { at; fault } ->
      let healed =
        match fault with
        | Crash_node a ->
            recover_at
              (function
                | Recover_node b -> Topology.addr_equal a b | _ -> false)
              at
        | Crash_group g ->
            recover_at
              (function Recover_group g' -> g = g' | _ -> false)
              at
        | f -> at +. Option.value ~default:0.0 (window_of f)
      in
      Float.max acc healed)
    0.0 sched

let sorted sched = T.sorted (fun e -> e.at) sched
