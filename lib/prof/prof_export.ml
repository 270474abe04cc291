module Trace = Massbft_trace.Trace

(* ------------------------------------------------------------------ *)
(* Text report (Saturation-style ranked listing)                       *)
(* ------------------------------------------------------------------ *)

let pct v = 100.0 *. v

let text (r : Prof.report) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let plural n = if n = 1 then "" else "s" in
  add "Host profile: %d shard%s, %d slice%s, lookahead %.3f s\n" r.rp_shards
    (plural r.rp_shards) r.rp_slices (plural r.rp_slices) r.rp_lookahead;
  add
    "wall %.3f s for %.1f sim s (%.1fx real time), %d events, %.0f \
     events/slice\n"
    r.rp_wall_s r.rp_sim_end_s
    (if r.rp_wall_s > 0.0 then r.rp_sim_end_s /. r.rp_wall_s else 0.0)
    r.rp_events r.rp_events_per_slice;
  add "attributed %.3f s = %.1f%% of wall\n" r.rp_attributed_s
    (pct r.rp_attributed_share);
  add "where the wall time went:\n";
  List.iter
    (fun (p : Prof.phase) ->
      add "  %-16s %8.3f s  %5.1f%%\n" p.p_name p.p_seconds (pct p.p_share))
    r.rp_wall_attribution;
  add "gc: %d minor, %d major, %.0f promoted words\n" r.rp_gc_minor
    r.rp_gc_major r.rp_gc_promoted_w;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

(* v2: one slice log replaces v1's per-window driver phases. *)
let schema_version = 2

let esc s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = Printf.sprintf "\"%s\"" (esc s)

let jnum f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let jarr items = "[" ^ String.concat "," items ^ "]"

let report_fields (r : Prof.report) =
  [
    ("shards", string_of_int r.rp_shards);
    ("slices", string_of_int r.rp_slices);
    ("lookahead_s", jnum r.rp_lookahead);
    ("wall_s", jnum r.rp_wall_s);
    ("sim_end_s", jnum r.rp_sim_end_s);
    ( "sim_s_per_wall_s",
      jnum (if r.rp_wall_s > 0.0 then r.rp_sim_end_s /. r.rp_wall_s else 0.0)
    );
    ("events", string_of_int r.rp_events);
    ("events_per_slice", jnum r.rp_events_per_slice);
    ("attributed_s", jnum r.rp_attributed_s);
    ("attributed_share", jnum r.rp_attributed_share);
    ( "attribution",
      jarr
        (List.map
           (fun (p : Prof.phase) ->
             jobj
               [
                 ("phase", jstr p.p_name);
                 ("seconds", jnum p.p_seconds);
                 ("share", jnum p.p_share);
               ])
           r.rp_wall_attribution) );
    ( "gc",
      jobj
        [
          ("minor_collections", string_of_int r.rp_gc_minor);
          ("major_collections", string_of_int r.rp_gc_major);
          ("promoted_words", jnum r.rp_gc_promoted_w);
        ] );
  ]

let slice_json (s : Prof.slice) =
  jobj
    [
      ("sim_end_s", jnum s.s_end);
      ("host_t0_s", jnum s.s_host_t0);
      ("wall_s", jnum s.s_wall);
      ("events", string_of_int s.s_events);
      ("gc_minor", string_of_int s.s_gc_minor);
      ("gc_major", string_of_int s.s_gc_major);
      ("gc_promoted_words", jnum s.s_gc_promoted_w);
    ]

let json ?(slices = false) p =
  let r = Prof.report p in
  let fields =
    (("schema_version", string_of_int schema_version) :: report_fields r)
    @
    if slices then [ ("slice_log", jarr (List.map slice_json (Prof.slices p))) ]
    else []
  in
  jobj fields

let write_json ?slices p path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (json ?slices p);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Host-timeline trace events                                          *)
(* ------------------------------------------------------------------ *)

(* Builds a Trace sink whose timestamps are *host* seconds since the
   first profiled slice, one span per slice. trace_export.ml puts the
   host sink's events under their own pid so one Perfetto file shows
   the simulated timeline and the host timeline side by side. *)
let to_trace p =
  let ss = Prof.slices p in
  (* 2 trace events per span *)
  let t = Trace.create ~capacity:(max 1024 (2 * List.length ss)) () in
  List.iter
    (fun (s : Prof.slice) ->
      Trace.span t ~cat:"host.sim" ~gid:(-1) ~b:s.s_host_t0
        ~e:(s.s_host_t0 +. s.s_wall)
        ~args:[ ("events", Trace.Int s.s_events) ]
        "slice")
    ss;
  t
