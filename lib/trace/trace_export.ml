(* Chrome trace_event JSON and the plain-text critical-path report.

   Both outputs are deterministic functions of the buffer contents:
   events are processed in a total order (timestamp, then emission
   sequence), floats are printed with fixed formats, and no wall-clock
   or hashtable-iteration order leaks in. *)

module Json = Massbft_util.Json

let add_value b (v : Trace.value) =
  match v with
  | Trace.Int i -> Buffer.add_string b (string_of_int i)
  | Trace.Float f -> Buffer.add_string b (Printf.sprintf "%.9g" f)
  | Trace.Str s -> Json.add_quoted b s

(* Microsecond timestamps with fixed precision: stable bytes and more
   than enough resolution for a simulator whose finest delay is 1 us. *)
let add_ts b ts = Buffer.add_string b (Printf.sprintf "%.3f" (ts *. 1e6))

(* pid 0 / tid 0 hold events with no node scope; group g is pid g+1 and
   node n within it is tid n+1. *)
let pid_of (ev : Trace.event) = ev.Trace.gid + 1
let tid_of (ev : Trace.event) = ev.Trace.node + 1

let eid_args (ev : Trace.event) =
  if ev.Trace.e_gid < 0 then []
  else
    [ ("eid", Trace.Str (Printf.sprintf "e(%d,%d)" ev.Trace.e_gid ev.Trace.e_seq)) ]

let add_args b args =
  Buffer.add_string b "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Json.add_quoted b k;
      Buffer.add_char b ':';
      add_value b v)
    args;
  Buffer.add_char b '}'

(* Host-timeline events (from [Prof_export.to_trace]) live in their own
   pid, well clear of any plausible group count, so Perfetto shows the
   simulated and host timelines side by side in one file. *)
let host_pid = 1000

let add_common b (ev : Trace.event) ~ph ~pid =
  Buffer.add_string b "{\"name\":";
  Json.add_quoted b ev.Trace.name;
  Buffer.add_string b ",\"cat\":";
  Json.add_quoted b (if ev.Trace.cat = "" then "default" else ev.Trace.cat);
  Buffer.add_string b (Printf.sprintf ",\"ph\":\"%s\",\"ts\":" ph);
  add_ts b ev.Trace.ts;
  Buffer.add_string b
    (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid (tid_of ev))

let sorted_events t =
  List.stable_sort
    (fun (a : Trace.event) (b : Trace.event) ->
      let c = compare a.Trace.ts b.Trace.ts in
      if c <> 0 then c else compare a.Trace.ev_seq b.Trace.ev_seq)
    (Trace.events t)

let add_event b sep pid (ev : Trace.event) =
  sep ();
  (match ev.Trace.kind with
  | Trace.Instant ->
      add_common b ev ~ph:"i" ~pid;
      Buffer.add_string b ",\"s\":\"t\",";
      add_args b (ev.Trace.args @ eid_args ev)
  | Trace.Counter v ->
      add_common b ev ~ph:"C" ~pid;
      Buffer.add_string b ",";
      add_args b [ ("value", Trace.Float v) ]
  | Trace.Span_begin ->
      add_common b ev ~ph:"b" ~pid;
      Buffer.add_string b (Printf.sprintf ",\"id\":\"0x%x\"," ev.Trace.span);
      add_args b (ev.Trace.args @ eid_args ev)
  | Trace.Span_end ->
      add_common b ev ~ph:"e" ~pid;
      Buffer.add_string b (Printf.sprintf ",\"id\":\"0x%x\"," ev.Trace.span);
      add_args b ev.Trace.args);
  Buffer.add_char b '}'

let to_chrome_json ?host t =
  let evs = sorted_events t in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  (* Process-name metadata for every pid that appears, in pid order. *)
  let pids =
    List.sort_uniq compare (0 :: List.map pid_of evs)
  in
  List.iter
    (fun pid ->
      sep ();
      let name = if pid = 0 then "cluster" else Printf.sprintf "group %d" (pid - 1) in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid name))
    pids;
  List.iter (fun ev -> add_event b sep (pid_of ev) ev) evs;
  (* Host timeline: same document, separate pid namespace. Host spans
     share the id space of their own sink, disjoint pids keep the two
     timelines from colliding in viewers. *)
  (match host with
  | None -> ()
  | Some h ->
      let hevs = sorted_events h in
      if hevs <> [] then begin
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
             host_pid "host: simulator")
      end;
      List.iter (fun ev -> add_event b sep host_pid ev) hevs);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"";
  Buffer.add_string b
    (Printf.sprintf ",\"otherData\":{\"emitted\":%d,\"dropped\":%d}}\n"
       (Trace.emitted t) (Trace.dropped t));
  Buffer.contents b

let write_chrome_json ?host t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ?host t))

(* ------------------------------------------------------------------ *)
(* Critical-path report                                                *)
(* ------------------------------------------------------------------ *)

type cspan = {
  c_name : string;
  c_cat : string;
  c_gid : int;
  c_node : int;
  c_b : float;
  c_e : float;
  c_args : (string * Trace.value) list;
  c_seq : int;
}

(* Pair up Span_begin/Span_end events by span id, in emission order. *)
let closed_spans t =
  let open_tbl = Hashtbl.create 256 in
  let acc = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.kind with
      | Trace.Span_begin -> Hashtbl.replace open_tbl ev.Trace.span ev
      | Trace.Span_end -> (
          match Hashtbl.find_opt open_tbl ev.Trace.span with
          | None -> ()  (* begin fell off the ring buffer *)
          | Some bev ->
              Hashtbl.remove open_tbl ev.Trace.span;
              acc :=
                {
                  c_name = bev.Trace.name;
                  c_cat = bev.Trace.cat;
                  c_gid = bev.Trace.gid;
                  c_node = bev.Trace.node;
                  c_b = bev.Trace.ts;
                  c_e = ev.Trace.ts;
                  c_args = bev.Trace.args;
                  c_seq = bev.Trace.ev_seq;
                }
                :: !acc)
      | _ -> ())
    (Trace.events t);
  List.rev !acc

let span_label s =
  let link =
    match List.assoc_opt "link" s.c_args with
    | Some (Trace.Str l) -> " " ^ l
    | _ -> ""
  in
  let where =
    if s.c_gid >= 0 then Printf.sprintf " g%d/n%d" s.c_gid s.c_node else ""
  in
  Printf.sprintf "%s%s%s %s" s.c_cat where link s.c_name

let overlap a_b a_e b_b b_e = Float.min a_e b_e -. Float.max a_b b_b

let critical_path_report ?(limit = 10) t =
  let spans = closed_spans t in
  let resource =
    List.filter
      (fun s -> s.c_cat = "nic" || s.c_cat = "cpu" || s.c_cat = "net")
      spans
  in
  let phases = List.filter (fun s -> s.c_cat = "entry.phase") spans in
  (* Entries in first-traced order. *)
  let seen = Hashtbl.create 64 in
  let entries = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.e_gid >= 0 && ev.Trace.cat = "entry.phase" then begin
        let key = (ev.Trace.e_gid, ev.Trace.e_seq) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          entries := key :: !entries
        end
      end)
    (Trace.events t);
  let entries = List.rev !entries in
  let shown = List.filteri (fun i _ -> i < limit) entries in
  let b = Buffer.create 1024 in
  let n_begin =
    List.length
      (List.filter
         (fun (e : Trace.event) -> e.Trace.kind = Trace.Span_begin)
         (Trace.events t))
  in
  Buffer.add_string b
    (Printf.sprintf
       "trace: %d events retained (%d emitted, %d dropped), %d/%d spans closed\n"
       (Trace.length t) (Trace.emitted t) (Trace.dropped t) (List.length spans)
       n_begin);
  Buffer.add_string b
    (Printf.sprintf "critical path, %d of %d traced entries:\n"
       (List.length shown) (List.length entries));
  (* Phase spans carry their entry identity in e_gid/e_seq of the
     underlying events; closed_spans drops that, so re-derive it from
     the begin events (keyed by emission sequence). *)
  let phase_eid = Hashtbl.create 256 in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.kind = Trace.Span_begin && ev.Trace.cat = "entry.phase" then
        Hashtbl.replace phase_eid ev.Trace.ev_seq
          (ev.Trace.e_gid, ev.Trace.e_seq))
    (Trace.events t);
  List.iter
    (fun (eg, es) ->
      let my_phases =
        List.filter
          (fun s ->
            match Hashtbl.find_opt phase_eid s.c_seq with
            | Some (g, q) -> g = eg && q = es
            | None -> false)
          phases
      in
      let total =
        List.fold_left (fun acc s -> acc +. (s.c_e -. s.c_b)) 0.0 my_phases
      in
      Buffer.add_string b
        (Printf.sprintf "  entry e(%d,%d)  total %.2f ms\n" eg es
           (1000.0 *. total));
      List.iter
        (fun p ->
          let dur = p.c_e -. p.c_b in
          (* The resource span overlapping this phase window the
             longest is the best single explanation of its latency. *)
          let best =
            List.fold_left
              (fun best r ->
                let ov = overlap p.c_b p.c_e r.c_b r.c_e in
                match best with
                | Some (bov, _) when bov >= ov -> best
                | _ -> if ov > 0.0 then Some (ov, r) else best)
              None resource
          in
          let wait =
            match best with
            | None -> "(no traced resource wait)"
            | Some (ov, r) ->
                Printf.sprintf "longest wait: %s %.2f ms" (span_label r)
                  (1000.0 *. ov)
          in
          Buffer.add_string b
            (Printf.sprintf "    %-8s %9.2f ms  %s\n" p.c_name (1000.0 *. dur)
               wait))
        my_phases)
    shown;
  Buffer.contents b
