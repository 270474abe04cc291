module Summary = struct
  type t = {
    mutable samples : float array;
    mutable size : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable lo : float;
    mutable hi : float;
    mutable sorted : bool;
  }

  let create () =
    {
      samples = [||];
      size = 0;
      sum = 0.0;
      sumsq = 0.0;
      lo = infinity;
      hi = neg_infinity;
      sorted = true;
    }

  let add t x =
    let cap = Array.length t.samples in
    if t.size = cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let ndata = Array.make ncap 0.0 in
      Array.blit t.samples 0 ndata 0 t.size;
      t.samples <- ndata
    end;
    t.samples.(t.size) <- x;
    t.size <- t.size + 1;
    t.sum <- t.sum +. x;
    t.sumsq <- t.sumsq +. (x *. x);
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x;
    t.sorted <- false

  let count t = t.size
  let mean t = if t.size = 0 then 0.0 else t.sum /. float_of_int t.size

  (* Extremes of an empty summary used to report 0.0, which silently
     fabricated a plausible-looking row in figure output. The plain
     accessors now raise, and the [_opt] variants let callers opt into
     an explicit default. *)
  let min_opt t = if t.size = 0 then None else Some t.lo
  let max_opt t = if t.size = 0 then None else Some t.hi

  let min t =
    if t.size = 0 then invalid_arg "Stats.Summary.min: empty summary"
    else t.lo

  let max t =
    if t.size = 0 then invalid_arg "Stats.Summary.max: empty summary"
    else t.hi

  let stddev t =
    if t.size < 2 then 0.0
    else
      let n = float_of_int t.size in
      let var = (t.sumsq /. n) -. ((t.sum /. n) ** 2.0) in
      if var < 0.0 then 0.0 else sqrt var

  let swap (a : float array) i j =
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp

  (* Quicksort of the prefix [lo, hi) directly in the sample buffer —
     [Array.sort] cannot sort a prefix, and the copy/sort/blit detour
     allocated a full scratch array per percentile query after every
     batch of adds. [Float.compare] is a total order, so NaN samples
     cannot break termination the way [<] would. *)
  let rec sort_prefix (a : float array) lo hi =
    if hi - lo <= 16 then
      for i = lo + 1 to hi - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && Float.compare a.(!j) x > 0 do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      (* Median-of-3 pivot guards against the sorted/reversed inputs
         that are common for monotone metrics. *)
      let mid = lo + ((hi - lo) / 2) in
      if Float.compare a.(mid) a.(lo) < 0 then swap a mid lo;
      if Float.compare a.(hi - 1) a.(lo) < 0 then swap a (hi - 1) lo;
      if Float.compare a.(hi - 1) a.(mid) < 0 then swap a (hi - 1) mid;
      let pivot = a.(mid) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while Float.compare a.(!i) pivot < 0 do incr i done;
        while Float.compare a.(!j) pivot > 0 do decr j done;
        if !i <= !j then begin
          swap a !i !j;
          incr i;
          decr j
        end
      done;
      sort_prefix a lo (!j + 1);
      sort_prefix a !i hi
    end

  let ensure_sorted t =
    if not t.sorted then begin
      sort_prefix t.samples 0 t.size;
      t.sorted <- true
    end

  let percentile t p =
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Summary.percentile: p outside [0, 100]";
    if t.size = 0 then
      invalid_arg "Stats.Summary.percentile: empty summary";
    ensure_sorted t;
    let rank =
      int_of_float (ceil (p /. 100.0 *. float_of_int t.size)) - 1
    in
    let rank = Stdlib.max 0 (Stdlib.min (t.size - 1) rank) in
    t.samples.(rank)

  let percentile_opt t p =
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Summary.percentile_opt: p outside [0, 100]";
    if t.size = 0 then None else Some (percentile t p)

  let clear t =
    t.samples <- [||];
    t.size <- 0;
    t.sum <- 0.0;
    t.sumsq <- 0.0;
    t.lo <- infinity;
    t.hi <- neg_infinity;
    t.sorted <- true
end

module Timeseries = struct
  type t = {
    bucket : float;
    sums : (int, float) Hashtbl.t;
    counts : (int, int) Hashtbl.t;
  }

  let create ~bucket =
    if bucket <= 0.0 then
      invalid_arg "Stats.Timeseries.create: bucket must be positive";
    { bucket; sums = Hashtbl.create 64; counts = Hashtbl.create 64 }

  let add t ~time v =
    let idx = int_of_float (floor (time /. t.bucket)) in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.sums idx) in
    Hashtbl.replace t.sums idx (prev +. v);
    let prevc = Option.value ~default:0 (Hashtbl.find_opt t.counts idx) in
    Hashtbl.replace t.counts idx (prevc + 1)

  (* The inclusive index range with at least one observation. *)
  let index_span t =
    Hashtbl.fold
      (fun idx _ (lo, hi) -> (Stdlib.min lo idx, Stdlib.max hi idx))
      t.sums (max_int, min_int)

  (* Both series zero-fill the gaps between the first and last observed
     bucket: a stall (crashed group, wedged log) shows up as an explicit
     0.0 sample instead of silently vanishing from the series, which
     would make rate plots look continuous across the outage. *)
  let rate_series t =
    let lo, hi = index_span t in
    if lo > hi then []
    else
      List.init
        (hi - lo + 1)
        (fun k ->
          let idx = lo + k in
          let sum = Option.value ~default:0.0 (Hashtbl.find_opt t.sums idx) in
          (float_of_int idx *. t.bucket, sum /. t.bucket))

  let mean_series t =
    let lo, hi = index_span t in
    if lo > hi then []
    else
      List.init
        (hi - lo + 1)
        (fun k ->
          let idx = lo + k in
          match Hashtbl.find_opt t.counts idx with
          | None | Some 0 -> (float_of_int idx *. t.bucket, 0.0)
          | Some n ->
              let sum = Hashtbl.find t.sums idx in
              (float_of_int idx *. t.bucket, sum /. float_of_int n))
end

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }

  let add t n =
    if n < 0 then invalid_arg "Stats.Counter.add: negative increment";
    t.n <- t.n + n

  let get t = t.n
  let reset t = t.n <- 0
end
