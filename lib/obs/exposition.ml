module Json = Massbft_util.Json

(* Prometheus label-value escaping: backslash, double-quote, newline. *)
let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* HELP text escaping: backslash and newline only (quotes are legal). *)
let escape_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_block labels =
  match labels with
  | [] -> ""
  | labels ->
      let pairs =
        List.map
          (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
          labels
      in
      "{" ^ String.concat "," pairs ^ "}"

let prometheus registry =
  let buf = Buffer.create 4096 in
  let last_header = ref "" in
  List.iter
    (fun (s : Registry.sample) ->
      if s.name <> !last_header then begin
        last_header := s.name;
        if s.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" s.name (escape_help s.help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.name
             (Registry.kind_to_string s.kind))
      end;
      match s.point with
      | Registry.P_counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.name (label_block s.labels) c)
      | Registry.P_gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.name (label_block s.labels)
               (Json.number g)))
    (Registry.collect registry);
  Buffer.contents buf

let add_json_labels buf labels =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_quoted buf k;
      Buffer.add_char buf ':';
      Json.add_quoted buf v)
    labels;
  Buffer.add_char buf '}'

let json registry =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i (s : Registry.sample) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n  {\"name\":";
      Json.add_quoted buf s.name;
      Buffer.add_string buf ",\"kind\":";
      Json.add_quoted buf (Registry.kind_to_string s.kind);
      Buffer.add_string buf ",\"labels\":";
      add_json_labels buf s.labels;
      (match s.point with
      | Registry.P_counter c ->
          Buffer.add_string buf (Printf.sprintf ",\"value\":%d" c)
      | Registry.P_gauge g ->
          Buffer.add_string buf
            (Printf.sprintf ",\"value\":%s" (Json.number g)));
      Buffer.add_string buf "}")
    (Registry.collect registry);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
