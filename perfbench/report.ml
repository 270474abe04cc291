(* The result: a readable table, then one JSON object on the last line
   of standard output. *)

type metric = { name : string; unit : string; value : float; note : string }

let metric ?(note = "") name unit value = { name; unit; value; note }

let print_table ms =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16.6g %-12s%s\n" m.name m.value m.unit
        (if m.note = "" then "" else "  " ^ m.note))
    ms

(* Every value with all its digits, as the run measured it. *)
let json_number v = Printf.sprintf "%.17g" v

let json_line ~correct ~attempted ~failed ms =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric ms))

let non_finite ms = List.filter (fun m -> not (Float.is_finite m.value)) ms
