(* The reference kernel: a fixed, Stdlib-only slice of work whose host
   time is the benchmark's unit of speed.

   Neighbouring tenants on a shared host slow a run by 20-45% from one
   minute to the next, and they slow work that looks alike by about the
   same factor at the same moment. The drive loop therefore runs one
   slice between short simulation steps and expresses its own wall time
   in units of the slices' measured time: a host that is busy right now
   makes both slower, and the ratio stays put.

   The slice has to resemble the simulator's own work to track it, and
   it must not call the repository's code, or a faster simulator would
   speed up its own yardstick. It does what the event loop does: pops
   timestamped records from a binary heap, calls their closures, and
   pushes freshly allocated successors; it builds string keys and hashes
   them into a fresh [Hashtbl] of boxed tuples, as the protocol stages do
   with digests; and it runs a spread of other Stdlib code (formatting,
   a string [Map], a [Queue], a [Buffer], a sort), because the simulator's
   large code footprint is part of what neighbours slow down. Its minor
   collections also pick up a share of the major GC work the simulator's
   heap owes, just as the simulator's own collections do. Kernels that
   only hashed, only chased pointers through a large array, or ran
   behind a forced minor collection all tracked the simulator worse
   (see NOTES.md). *)

(* Nominal cost of one slice, in reference seconds. [slice] is sized so
   that one slice takes about this long on a 2-vCPU cloud VM, which
   makes reference seconds read roughly like wall seconds there. *)
let nominal_s = 2e-3

(* ---- event loop ---- *)

type event = { at : float; seq : int; fire : int -> int }

let depth = 1000
let pops = 1250
let none = { at = 0.0; seq = 0; fire = Fun.id }
let heap = Array.make (depth + 1) none
let size = ref 0

let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let swap i j =
  let t = heap.(i) in
  heap.(i) <- heap.(j);
  heap.(j) <- t

let push e =
  let i = ref !size in
  incr size;
  heap.(!i) <- e;
  while !i > 0 && before heap.(!i) heap.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    swap !i p;
    i := p
  done

let pop () =
  let top = heap.(0) in
  decr size;
  heap.(0) <- heap.(!size);
  heap.(!size) <- none;
  let i = ref 0 and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    let m = ref !i in
    if l < !size && before heap.(l) heap.(!m) then m := l;
    if l + 1 < !size && before heap.(l + 1) heap.(!m) then m := l + 1;
    if !m = !i then settled := true
    else begin
      swap !i !m;
      i := !m
    end
  done;
  top

let event_loop () =
  size := 0;
  let rng = ref 12345 in
  let delay () =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    float_of_int (!rng land 1023) *. 1e-6
  in
  for seq = 1 to depth do
    push { at = delay (); seq; fire = (fun x -> x + 1) }
  done;
  let fired = ref 0 in
  for k = 1 to pops do
    let e = pop () in
    fired := e.fire !fired;
    let seq = depth + k in
    push { at = e.at +. delay (); seq; fire = (fun x -> if seq > 0 then x + 1 else x) }
  done;
  !fired

(* ---- hashing ---- *)

let keys = 1024
let distinct = 512

let hashing () =
  let h = Hashtbl.create 64 in
  for i = 0 to keys - 1 do
    let k = "k" ^ string_of_int ((i * 7919) land (distinct - 1)) in
    match Hashtbl.find_opt h k with
    | Some (n, _) -> Hashtbl.replace h k (n + 1, k)
    | None -> Hashtbl.replace h k (1, k)
  done;
  Hashtbl.fold (fun _ (n, _) acc -> acc + n) h 0

(* ---- other library code ---- *)

module Smap = Map.Make (String)

let rows = 500

let library () =
  let counts = ref Smap.empty and recent = Queue.create () and log = Buffer.create 256 in
  for i = 0 to rows - 1 do
    let k = Printf.sprintf "g%d/n%d:%d" (i land 3) (i land 7) ((i * 31) land 1023) in
    counts := Smap.update k (function None -> Some 1 | Some c -> Some (c + 1)) !counts;
    Queue.push k recent;
    if Queue.length recent > 64 then begin
      Buffer.add_string log (Queue.pop recent);
      if Buffer.length log > 200 then Buffer.clear log
    end
  done;
  let ranked = List.sort (fun (a, x) (b, y) -> compare (y, a) (x, b)) (Smap.bindings !counts) in
  List.fold_left (fun acc (_, c) -> acc + c) 0 ranked

let slice () = event_loop () + hashing () + library ()

(* Every slice fires the same events and performs the same updates; a
   different sum means the kernel was miscompiled or cut short. *)
let expected = pops + keys + rows

(* Accumulated slice time of one measured stretch. *)
type meter = { mutable wall : float; mutable slices : int }

let meter () = { wall = 0.0; slices = 0 }

(* The host clock every span and timing in the benchmark reads: seconds
   since the process started. *)
let epoch = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. epoch

let run ?(trace = Massbft_trace.Trace.null) m =
  let t0 = now () in
  let sum = slice () in
  let t1 = now () in
  if sum <> expected then failwith "reference kernel: wrong checksum";
  Massbft_trace.Trace.span trace ~cat:"ref" ~b:t0 ~e:t1 "ref.slice";
  m.wall <- m.wall +. (t1 -. t0);
  m.slices <- m.slices + 1

let slice_s m = if m.slices = 0 then nan else m.wall /. float_of_int m.slices

(* [wall] host seconds expressed in reference seconds, at the slice
   speed [m] measured alongside them. *)
let to_ref m wall = wall /. slice_s m *. nominal_s
