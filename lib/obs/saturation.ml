type verdict = {
  resource : string;
  mean : float;
  peak : float;
  saturated_share : float;
  windows : int;
}

(* A window counts as saturated at this busy fraction or above. *)
let threshold = 0.95

(* Rows the text report lists before summarizing the rest. *)
let top = 10

let analyze sampler =
  let rows = Sampler.rows sampler in
  let n = List.length rows in
  if n = 0 then []
  else
    Sampler.resource_columns sampler
    |> List.map (fun (i, resource) ->
           let sum = ref 0.0 and peak = ref 0.0 and sat = ref 0 in
           List.iter
             (fun (_, row) ->
               let v = row.(i) in
               sum := !sum +. v;
               if v > !peak then peak := v;
               if v >= threshold then incr sat)
             rows;
           {
             resource;
             mean = !sum /. float_of_int n;
             peak = !peak;
             saturated_share = float_of_int !sat /. float_of_int n;
             windows = n;
           })
    |> List.sort (fun a b ->
           match compare b.saturated_share a.saturated_share with
           | 0 -> (
               match compare b.mean a.mean with
               | 0 -> compare a.resource b.resource
               | c -> c)
           | c -> c)

let binding sampler =
  match analyze sampler with [] -> None | v :: _ -> Some v

let pct v = 100.0 *. v

let describe v =
  Printf.sprintf "%s >=%.0f%% busy for %.1f%% of the measurement window (mean %.2f, peak %.2f)"
    v.resource (pct threshold) (pct v.saturated_share) v.mean v.peak

let report sampler =
  let buf = Buffer.create 1024 in
  match analyze sampler with
  | [] ->
      Buffer.add_string buf "saturation: no samples recorded\n";
      Buffer.contents buf
  | best :: _ as verdicts ->
      Buffer.add_string buf
        (Printf.sprintf
           "Saturation report: %d windows of %.3f s, threshold %.0f%%\n"
           best.windows (Sampler.period sampler) (pct threshold));
      Buffer.add_string buf
        (Printf.sprintf "binding resource: %s\n" (describe best));
      List.iteri
        (fun i v ->
          if i < top then
            Buffer.add_string buf
              (Printf.sprintf "  %-24s mean %5.2f  peak %5.2f  saturated %5.1f%%\n"
                 v.resource v.mean v.peak (pct v.saturated_share)))
        verdicts;
      let n = List.length verdicts in
      if n > top then
        Buffer.add_string buf
          (Printf.sprintf "  ... %d more resources below\n" (n - top));
      Buffer.contents buf
