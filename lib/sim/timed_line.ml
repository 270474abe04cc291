(* The shared core of the [@TIME ITEM ...] scenario languages: tokens,
   line framing, diagnostics and the common range checks. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ---- Tokens ---- *)

let tokens s =
  List.filter (fun x -> x <> "") (String.split_on_char ' ' (String.trim s))

let float what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "bad %s %S" what s

let int what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "bad %s %S" what s

let gid s =
  if String.length s >= 2 && s.[0] = 'g' then
    int "group" (String.sub s 1 (String.length s - 1))
  else fail "bad group %S (expected gN)" s

let addr s =
  match String.index_opt s '/' with
  | Some i
    when i >= 2
         && s.[0] = 'g'
         && String.length s > i + 2
         && s.[i + 1] = 'n' ->
      let g = int "group" (String.sub s 1 (i - 1)) in
      let n = int "node" (String.sub s (i + 2) (String.length s - i - 2)) in
      { Topology.g; n }
  | _ -> fail "bad address %S (expected gG/nN)" s

let keywords item keys toks =
  let rec pairs acc = function
    | [] -> acc
    | k :: _ when not (List.mem k keys) ->
        fail "%s: unexpected token %S" item k
    | k :: _ when List.mem_assoc k acc -> fail "%s: duplicate %S" item k
    | [ k ] -> fail "%s: missing value for %S" item k
    | k :: v :: rest -> pairs ((k, v) :: acc) rest
  in
  let args = pairs [] toks in
  fun k ->
    match List.assoc_opt k args with
    | Some v -> v
    | None -> fail "%s: missing %S" item k

let args item parse keys = function
  | [] -> fail "%s: missing argument" item
  | a :: rest ->
      let v = parse a in
      (v, keywords item keys rest)

let arg item parse toks = fst (args item parse [] toks)

(* ---- Lines ---- *)

let read item text =
  List.concat
    (List.mapi
       (fun i l ->
         match tokens l with
         | [] -> []
         | t :: _ when t.[0] = '#' -> []
         | at :: rest -> (
             try
               if String.length at > 1 && at.[0] = '@' then
                 [ item (float "time" (String.sub at 1 (String.length at - 1))) rest ]
               else fail "bad event line %S (expected \"@TIME ITEM ...\")" (String.trim l)
             with Parse_error m -> fail "line %d: %s" (i + 1) m))
       (String.split_on_char '\n' text))

let item_name = String.map (function '_' -> '-' | c -> c)
let fl = Printf.sprintf "%g"
let line at item = "@" ^ fl at ^ " " ^ item
let write to_line events = String.concat "" (List.map (fun e -> to_line e ^ "\n") events)
let sorted at events = List.stable_sort (fun a b -> Float.compare (at a) (at b)) events

(* ---- Validation ---- *)

let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e

let rec all check = function
  | [] -> Ok ()
  | x :: rest -> check x >>= fun () -> all check rest

let check_group what ~ng g =
  if g < 0 || g >= ng then Error (Printf.sprintf "%s: group %d out of range" what g)
  else Ok ()

let check_addr what ~group_sizes (a : Topology.addr) =
  check_group what ~ng:(Array.length group_sizes) a.Topology.g >>= fun () ->
  if a.Topology.n < 0 || a.Topology.n >= group_sizes.(a.Topology.g) then
    Error (Printf.sprintf "%s: node %s out of range" what (Topology.addr_to_string a))
  else Ok ()

let check_window what v =
  if v > 0.0 && Float.is_finite v then Ok ()
  else Error (Printf.sprintf "%s: duration must be positive" what)

let check_time what at =
  if at >= 0.0 && Float.is_finite at then Ok ()
  else Error (Printf.sprintf "%s: negative time" what)
