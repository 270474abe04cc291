module Topology = Massbft_sim.Topology

let wan_bps = 20e6
let lan_bps = 2.5e9
let cores = 8
let lan_rtt = 0.0005

let nationwide_sites =
  [|
    "Zhangjiakou"; "Chengdu"; "Hangzhou"; "Shenzhen"; "Beijing"; "Shanghai";
    "Guangzhou";
  |]

(* Symmetric RTT matrices in seconds. The three primary nationwide sites
   use the paper's reported extremes (26.7 and 43.4 ms); the rest are
   plausible intra-China distances in the same band. *)
let nationwide_matrix_ms =
  [|
    [| 0.0; 43.4; 26.7; 41.0; 8.0; 28.0; 40.0 |];
    [| 43.4; 0.0; 35.0; 30.0; 40.0; 36.0; 31.0 |];
    [| 26.7; 35.0; 0.0; 27.0; 28.0; 6.0; 26.0 |];
    [| 41.0; 30.0; 27.0; 0.0; 42.0; 29.0; 3.0 |];
    [| 8.0; 40.0; 28.0; 42.0; 0.0; 26.0; 41.0 |];
    [| 28.0; 36.0; 6.0; 29.0; 26.0; 0.0; 27.0 |];
    [| 40.0; 31.0; 26.0; 3.0; 41.0; 27.0; 0.0 |];
  |]

let worldwide_matrix_ms =
  [| [| 0.0; 206.0; 156.0 |]; [| 206.0; 0.0; 181.0 |]; [| 156.0; 181.0; 0.0 |] |]

let rtt_of matrix g1 g2 =
  let n = Array.length matrix in
  if g1 < 0 || g2 < 0 || g1 >= n || g2 >= n then
    invalid_arg "Clusters: group out of range for this cluster";
  matrix.(g1).(g2) /. 1000.0

let nationwide_rtt = rtt_of nationwide_matrix_ms
let worldwide_rtt = rtt_of worldwide_matrix_ms

let spec_of ~rtt ~group_sizes =
  {
    Topology.group_sizes;
    wan_bps;
    lan_bps;
    rtt;
    lan_rtt;
    cores;
  }

let sizes ?group_sizes ?(nodes_per_group = 7) ~groups () =
  match group_sizes with
  | Some s ->
      if Array.length s <> groups then
        invalid_arg "Clusters: group_sizes length mismatch";
      s
  | None -> Array.make groups nodes_per_group

let nationwide ?group_sizes ?nodes_per_group ?(groups = 3) () =
  if groups < 1 || groups > Array.length nationwide_sites then
    invalid_arg "Clusters.nationwide: 1..7 groups";
  spec_of ~rtt:nationwide_rtt
    ~group_sizes:(sizes ?group_sizes ?nodes_per_group ~groups ())

let worldwide ?group_sizes ?nodes_per_group () =
  spec_of ~rtt:worldwide_rtt
    ~group_sizes:(sizes ?group_sizes ?nodes_per_group ~groups:3 ())
