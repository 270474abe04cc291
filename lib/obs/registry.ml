type labels = (string * string) list

type kind = Counter | Gauge

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"

type counter = { mutable c : int }
type gauge = { mutable g : float }

type value =
  | V_counter of counter
  | V_counter_fn of (unit -> int)
  | V_gauge of gauge
  | V_gauge_fn of (unit -> float)

type series = { s_labels : labels; s_value : value }

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  mutable f_series : series list;  (* newest first; collect re-sorts *)
}

type t = { mutable families : family list (* newest first *) }

let create () = { families = [] }

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let canonical_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels

let family t ~name ~help kind =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Registry: invalid metric name %S" name);
  match List.find_opt (fun f -> f.f_name = name) t.families with
  | Some f ->
      if f.f_kind <> kind then
        invalid_arg
          (Printf.sprintf "Registry: %s already registered as a %s" name
             (kind_to_string f.f_kind));
      f
  | None ->
      let f = { f_name = name; f_help = help; f_kind = kind; f_series = [] } in
      t.families <- f :: t.families;
      f

let add_series f ~labels value =
  let labels = canonical_labels labels in
  if List.exists (fun s -> s.s_labels = labels) f.f_series then
    invalid_arg
      (Printf.sprintf "Registry: duplicate series for %s" f.f_name);
  f.f_series <- { s_labels = labels; s_value = value } :: f.f_series

let counter t ~name ?(help = "") labels =
  let f = family t ~name ~help Counter in
  let c = { c = 0 } in
  add_series f ~labels (V_counter c);
  c

let inc ?(by = 1) c =
  if by < 0 then invalid_arg "Registry.inc: negative increment";
  c.c <- c.c + by

let counter_value c = c.c

let counter_fn t ~name ?(help = "") labels fn =
  let f = family t ~name ~help Counter in
  add_series f ~labels (V_counter_fn fn)

let gauge t ~name ?(help = "") labels =
  let f = family t ~name ~help Gauge in
  let g = { g = 0.0 } in
  add_series f ~labels (V_gauge g);
  g

let set g v = g.g <- v
let gauge_value g = g.g

let gauge_fn t ~name ?(help = "") labels fn =
  let f = family t ~name ~help Gauge in
  add_series f ~labels (V_gauge_fn fn)

(* ---- snapshots for the exporters ---- *)

type point = P_counter of int | P_gauge of float

type sample = { name : string; help : string; kind : kind; labels : labels; point : point }

let sample_of_series f s =
  let point =
    match s.s_value with
    | V_counter c -> P_counter c.c
    | V_counter_fn fn -> P_counter (fn ())
    | V_gauge g -> P_gauge g.g
    | V_gauge_fn fn -> P_gauge (fn ())
  in
  { name = f.f_name; help = f.f_help; kind = f.f_kind; labels = s.s_labels; point }

let compare_labels a b = compare a b

let collect t =
  let families =
    List.sort (fun a b -> compare a.f_name b.f_name) t.families
  in
  List.concat_map
    (fun f ->
      f.f_series
      |> List.sort (fun a b -> compare_labels a.s_labels b.s_labels)
      |> List.map (sample_of_series f))
    families
