module Trace = Massbft_trace.Trace
module Json = Massbft_util.Json

(* ------------------------------------------------------------------ *)
(* Text report                                                         *)
(* ------------------------------------------------------------------ *)

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
  add "gc: %d minor, %d major, %.0f promoted words\n" r.rp_gc_minor
    r.rp_gc_major r.rp_gc_promoted_w;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

(* v2: one slice log replaces v1's per-window driver phases. v3: wall
   time is the sum of the slices, so the attribution fields are gone. *)
let schema_version = 3

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Json.quote k ^ ":" ^ v) fields) ^ "}"

let jarr items = "[" ^ String.concat "," items ^ "]"

let report_fields (r : Prof.report) =
  [
    ("shards", string_of_int r.rp_shards);
    ("slices", string_of_int r.rp_slices);
    ("lookahead_s", Json.number r.rp_lookahead);
    ("wall_s", Json.number r.rp_wall_s);
    ("sim_end_s", Json.number r.rp_sim_end_s);
    ( "sim_s_per_wall_s",
      Json.number (if r.rp_wall_s > 0.0 then r.rp_sim_end_s /. r.rp_wall_s else 0.0)
    );
    ("events", string_of_int r.rp_events);
    ("events_per_slice", Json.number r.rp_events_per_slice);
    ( "gc",
      jobj
        [
          ("minor_collections", string_of_int r.rp_gc_minor);
          ("major_collections", string_of_int r.rp_gc_major);
          ("promoted_words", Json.number r.rp_gc_promoted_w);
        ] );
  ]

let slice_json (s : Prof.slice) =
  jobj
    [
      ("sim_end_s", Json.number s.s_end);
      ("host_t0_s", Json.number s.s_host_t0);
      ("wall_s", Json.number s.s_wall);
      ("events", string_of_int s.s_events);
      ("gc_minor", string_of_int s.s_gc_minor);
      ("gc_major", string_of_int s.s_gc_major);
      ("gc_promoted_words", Json.number s.s_gc_promoted_w);
    ]

let json p =
  let r = Prof.report p in
  jobj
    (("schema_version", string_of_int schema_version)
     :: report_fields r
    @ [ ("slice_log", jarr (List.map slice_json (Prof.slices p))) ])

let write_json p path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (json p);
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
