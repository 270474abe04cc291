(* Tests for the execution substrate: the lazy KV store, Aria
   deterministic concurrency control (conflict rules, determinism,
   reordering), and the hash-chained ledger. *)

module Kvstore = Massbft_exec.Kvstore
module Aria = Massbft_exec.Aria
module Ledger = Massbft_exec.Ledger
module Txn = Massbft_workload.Txn
module Workload = Massbft_workload.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Txn builders for precise conflict scenarios. *)
let mk_id = ref 0

let mk ?(label = "t") body =
  incr mk_id;
  Txn.make ~id:!mk_id ~label ~wire_size:100 body

let write_txn k v = mk (fun ctx -> ctx.Txn.write k v)
let read_txn k = mk (fun ctx -> ignore (ctx.Txn.read k))

let rmw_txn k delta =
  mk (fun ctx ->
      let v = Txn.int_value (Option.value ~default:"0" (ctx.Txn.read k)) in
      ctx.Txn.write k (Txn.of_int (v + delta)))

(* [Aria.execute_batch] with the store writes it applied, in order. *)
let execute_logged ?reorder ?fallback s txns =
  let log = ref [] in
  let o = Aria.execute_batch ?reorder ?fallback ~on_write:(fun k v -> log := (k, v) :: !log) s txns in
  (o, List.rev !log)

(* ------------------------------------------------------------------ *)
(* Kvstore                                                             *)
(* ------------------------------------------------------------------ *)

let test_store_basics () =
  let s = Kvstore.create () in
  check_bool "absent" true (Kvstore.get s "a" = None);
  Kvstore.put s "a" "1";
  check_bool "present" true (Kvstore.get s "a" = Some "1");
  Kvstore.put s "a" "2";
  check_bool "overwrite" true (Kvstore.get s "a" = Some "2");
  check_int "size" 1 (Kvstore.size s)

let test_store_lazy_init () =
  let s = Kvstore.create ~init:(fun k -> if k = "cold" then Some "42" else None) () in
  check_bool "cold row faulted in" true (Kvstore.get s "cold" = Some "42");
  check_bool "unknown still absent" true (Kvstore.get s "other" = None);
  check_int "only cold materialized" 1 (Kvstore.size s);
  Kvstore.put s "cold" "43";
  check_bool "write wins over init" true (Kvstore.get s "cold" = Some "43")

let test_store_fingerprint () =
  let a = Kvstore.create () and b = Kvstore.create () in
  Kvstore.put a "x" "1";
  Kvstore.put a "y" "2";
  (* Same contents, different insertion order. *)
  Kvstore.put b "y" "2";
  Kvstore.put b "x" "1";
  Alcotest.(check string)
    "order-insensitive" (Kvstore.fingerprint a) (Kvstore.fingerprint b);
  Kvstore.put b "x" "999";
  check_bool "content-sensitive" false
    (String.equal (Kvstore.fingerprint a) (Kvstore.fingerprint b))

(* A reference for the open-addressed store: a Hashtbl holding the
   materialized bindings, with the store's fault-in rule and the
   store's fingerprint recipe. *)
module Model = struct
  type t = { tbl : (string, string) Hashtbl.t; init : string -> string option }

  let create init = { tbl = Hashtbl.create 16; init }

  let get m k =
    match Hashtbl.find_opt m.tbl k with
    | Some v -> Some v
    | None -> (
        match m.init k with
        | Some v -> Hashtbl.replace m.tbl k v; Some v
        | None -> None)

  let put m k v = Hashtbl.replace m.tbl k v

  let fingerprint m =
    let acc = Bytes.make 32 '\x00' in
    Hashtbl.iter
      (fun k v ->
        let h = Massbft_crypto.Sha256.digest (k ^ "\x00" ^ v) in
        Bytes.iteri
          (fun i c -> Bytes.set acc i (Char.chr (Char.code c lxor Char.code h.[i])))
          acc)
      m.tbl;
    Massbft_crypto.Sha256.digest_bytes acc
end

(* Groups of distinct keys with equal 30-bit [Hashtbl.hash], found by
   brute force: at every capacity each group shares one home slot and
   one stamp, so its keys sit in one probe chain and can only be told
   apart by comparing key strings. *)
let colliding_keys =
  let by_hash = Hashtbl.create 65536 in
  for i = 0 to 199_999 do
    let k = "c" ^ string_of_int i in
    let h = Hashtbl.hash k in
    Hashtbl.replace by_hash h (k :: Option.value ~default:[] (Hashtbl.find_opt by_hash h))
  done;
  Hashtbl.fold (fun _ ks acc -> if List.length ks >= 2 then ks :: acc else acc) by_hash []

(* Store init: half the "m" keys have an initial value, the other half
   (and every colliding key) are absent until written. *)
let model_init k =
  if String.length k > 1 && k.[0] = 'm' && Char.code k.[String.length k - 1] land 1 = 0
  then Some ("init-" ^ k)
  else None

let test_store_matches_model () =
  check_bool "found colliding keys" true (List.length colliding_keys >= 3);
  let rng = Random.State.make [| 13 |] in
  let s = Kvstore.create ~init:model_init () and m = Model.create model_init in
  let check_key k =
    check_bool ("get " ^ k) true (Kvstore.get s k = Model.get m k)
  in
  let check_all label =
    check_int (label ^ ": size") (Hashtbl.length m.Model.tbl) (Kvstore.size s);
    Alcotest.(check string) (label ^ ": fingerprint") (Model.fingerprint m) (Kvstore.fingerprint s)
  in
  (* The colliding groups go in first, while the table is at its
     smallest, and are read back after every doubling. *)
  List.iteri
    (fun i ks -> List.iteri (fun j k -> if (i + j) mod 2 = 0 then (Kvstore.put s k "v"; Model.put m k "v")) ks)
    colliding_keys;
  let colliding = List.concat colliding_keys in
  List.iter check_key colliding;
  let last_capacity = ref (Kvstore.capacity s) in
  for step = 1 to 400_000 do
    let k = "m" ^ string_of_int (Random.State.int rng 200_000) in
    (match Random.State.int rng 6 with
     | 0 ->
         let v = string_of_int step in
         Kvstore.put s k v;
         Model.put m k v
     | 1 ->
         (* Write through the slot a read found, as Aria's commit does. *)
         let v = string_of_int step in
         (match Kvstore.get s k with
          | Some _ -> Kvstore.set_slot s (Kvstore.last_slot s) v
          | None -> Kvstore.put s k v);
         ignore (Model.get m k);
         Model.put m k v
     | _ -> check_key k);
    if Kvstore.capacity s > !last_capacity then begin
      last_capacity := Kvstore.capacity s;
      List.iter check_key colliding
    end
  done;
  let doublings = ref 0 in
  while 64 lsl !doublings < Kvstore.capacity s do incr doublings done;
  check_bool (Printf.sprintf "%d doublings (>= 12)" !doublings) true (!doublings >= 12);
  check_all "after random ops";
  (* Outside the random key range, and odd: init says absent. *)
  let before = Kvstore.size s in
  check_bool "init None: absent" true (Kvstore.get s "m999999" = None);
  check_int "init None: nothing materialized" before (Kvstore.size s)

(* ------------------------------------------------------------------ *)
(* Aria                                                                *)
(* ------------------------------------------------------------------ *)

let test_aria_no_conflicts_all_commit () =
  let s = Kvstore.create () in
  let batch = [ write_txn "a" "1"; write_txn "b" "2"; read_txn "c" ] in
  let o = Aria.execute_batch s batch in
  check_int "all commit" 3 (List.length o.Aria.committed);
  check_int "none conflicted" 0 (List.length o.Aria.conflicted);
  check_bool "writes applied" true (Kvstore.get s "a" = Some "1");
  check_bool "writes applied" true (Kvstore.get s "b" = Some "2")

let test_aria_waw_first_writer_wins () =
  let s = Kvstore.create () in
  let t1 = write_txn "k" "first" and t2 = write_txn "k" "second" in
  let o = Aria.execute_batch s [ t1; t2 ] in
  check_int "one commits" 1 (List.length o.Aria.committed);
  check_int "one conflicted" 1 (List.length o.Aria.conflicted);
  check_bool "first writer won" true (Kvstore.get s "k" = Some "first");
  check_bool "loser is t2" true
    ((List.hd o.Aria.conflicted).Txn.id = t2.Txn.id)

let test_aria_snapshot_reads () =
  (* Reads observe the pre-batch snapshot, not in-batch writes of other
     txns. *)
  let s = Kvstore.create () in
  Kvstore.put s "k" "old";
  let seen = ref None in
  let t1 = write_txn "k" "new" in
  let t2 = mk (fun ctx -> seen := ctx.Txn.read "k") in
  (* t2 is ordered after t1 but with reordering commits as a
     before-writer read. *)
  let o = Aria.execute_batch ~reorder:true s [ t1; t2 ] in
  check_int "both commit under reordering" 2 (List.length o.Aria.committed);
  check_bool "t2 saw the snapshot value" true (!seen = Some "old");
  check_bool "store has the new value" true (Kvstore.get s "k" = Some "new")

let test_aria_standard_rule_aborts_raw () =
  let s = Kvstore.create () in
  Kvstore.put s "k" "old";
  let t1 = write_txn "k" "new" in
  let t2 = read_txn "k" in
  let o = Aria.execute_batch ~reorder:false s [ t1; t2 ] in
  check_int "reader aborted without reordering" 1
    (List.length o.Aria.conflicted);
  check_bool "aborted one is the reader" true
    ((List.hd o.Aria.conflicted).Txn.id = t2.Txn.id)

let test_aria_reordering_saves_raw_only () =
  (* raw-only (read vs earlier write) commits under reordering; but a
     txn with both raw and war still aborts. *)
  let s = Kvstore.create () in
  Kvstore.put s "x" "0";
  Kvstore.put s "y" "0";
  let t1 = mk (fun ctx ->
      ignore (ctx.Txn.read "y");
      ctx.Txn.write "x" "1")
  in
  let t2 = mk (fun ctx ->
      ignore (ctx.Txn.read "x");
      ctx.Txn.write "y" "2")
  in
  (* t2: raw on x (t1 writes x earlier), war on y (t1 reads y). Cannot be
     serialized either way: abort. *)
  let o = Aria.execute_batch ~reorder:true s [ t1; t2 ] in
  check_int "cycle aborts t2" 1 (List.length o.Aria.conflicted);
  check_bool "t2 is the victim" true
    ((List.hd o.Aria.conflicted).Txn.id = t2.Txn.id)

let test_aria_rmw_contention () =
  (* Ten counter increments on one key in a single batch: exactly one
     commits (the rest are WAW/RAW conflicts) — the Aria behaviour that
     produces TPC-C hotspot aborts. *)
  let s = Kvstore.create () in
  let batch = List.init 10 (fun _ -> rmw_txn "counter" 1) in
  let o = Aria.execute_batch s batch in
  check_int "one increment commits" 1 (List.length o.Aria.committed);
  check_int "nine retry" 9 (List.length o.Aria.conflicted);
  check_bool "counter = 1" true (Kvstore.get s "counter" = Some "1");
  (* Retrying the conflicted batch drains one more per round. *)
  let o2 = Aria.execute_batch s o.Aria.conflicted in
  check_int "second round commits one more" 1 (List.length o2.Aria.committed);
  check_bool "counter = 2" true (Kvstore.get s "counter" = Some "2")

let test_aria_logic_abort_discards_writes () =
  let s = Kvstore.create () in
  let t = mk (fun ctx ->
      ctx.Txn.write "k" "poison";
      ctx.Txn.abort ())
  in
  let o = Aria.execute_batch s [ t ] in
  check_int "logic aborted" 1 (List.length o.Aria.logic_aborted);
  check_int "not conflicted" 0 (List.length o.Aria.conflicted);
  check_bool "write discarded" true (Kvstore.get s "k" = None)

let test_aria_logic_abort_holds_no_reservation () =
  let s = Kvstore.create () in
  let t1 = mk (fun ctx ->
      ctx.Txn.write "k" "poison";
      ctx.Txn.abort ())
  in
  let t2 = write_txn "k" "good" in
  let o = Aria.execute_batch s [ t1; t2 ] in
  check_int "t2 commits despite t1's write" 1 (List.length o.Aria.committed);
  check_bool "good value stored" true (Kvstore.get s "k" = Some "good")

(* Aria builds one context per domain and resets the running
   transaction's footprint and last-key cache before each body. A
   logic-aborted writer of [k] must leave nothing behind for the next
   transaction, which reads [k] through the same key string: not its
   buffered write (the read sees the pre-batch value, and nothing of it
   is applied), and not its read of [r] (a leaked read reservation
   would make t2's write of [r] a WAR and, with t2's RAW on [w], abort
   it). The fallback lane runs the same bodies through the same
   context. *)
let test_aria_context_reset_per_txn () =
  let k = "k" in
  let run ~fallback_lane =
    let s = Kvstore.create () in
    Kvstore.put s k "pre";
    Kvstore.put s "r" "r0";
    let seen = ref None in
    let t0 = mk (fun ctx ->
        ignore (ctx.Txn.read "r");
        ctx.Txn.write k "poison";
        ctx.Txn.abort ())
    in
    let t1 = mk (fun ctx ->
        seen := ctx.Txn.read k;
        ctx.Txn.write "w" "x")
    in
    let t2 = mk (fun ctx ->
        ignore (ctx.Txn.read "w");
        ctx.Txn.write "r" "r1")
    in
    let o, effects =
      if fallback_lane then execute_logged s [] ~fallback:[ t0; t1; t2 ]
      else execute_logged s [ t0; t1; t2 ]
    in
    let lane = if fallback_lane then "fallback: " else "batch: " in
    Alcotest.(check (option string)) (lane ^ "t1 reads the pre-batch k") (Some "pre") !seen;
    check_int (lane ^ "t0 logic-aborted") 1 (List.length o.Aria.logic_aborted);
    check_int (lane ^ "t1 and t2 commit") 2 (List.length o.Aria.committed);
    Alcotest.(check (list (pair string string)))
      (lane ^ "effects are t1's and t2's writes only")
      [ ("w", "x"); ("r", "r1") ] effects;
    Alcotest.(check (option string)) (lane ^ "k untouched") (Some "pre") (Kvstore.get s k)
  in
  run ~fallback_lane:false;
  run ~fallback_lane:true

(* A body that raises leaves the execution state empty for the next batch,
   and the exception reaches the caller with the backtrace of the body's
   raise, not one starting in [Aria]. *)
exception Body_failed

let failing_body (_ : Txn.ctx) = raise Body_failed

let test_aria_body_exception () =
  let s = Kvstore.create () in
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let raised =
    match Aria.execute_batch s [ write_txn "a" "1"; mk failing_body ] with
    | _ -> None
    | exception Body_failed -> Some (Printexc.get_raw_backtrace ())
  in
  Printexc.record_backtrace recording;
  check_bool "the body's exception propagates" true (Option.is_some raised);
  check_bool "nothing applied" true (Kvstore.get s "a" = None);
  (match Option.bind raised Printexc.backtrace_slots with
  | Some slots when Array.length slots > 0 -> (
      match Printexc.Slot.location slots.(0) with
      | Some loc ->
          Alcotest.(check string) "backtrace starts at the body's raise" "test/test_exec.ml"
            loc.Printexc.filename
      | None -> ())
  | _ -> ());
  (* A leftover write reservation on "a" at position 0 would abort this
     reader at position 1 under the standard (non-reordering) rule. *)
  let o = Aria.execute_batch ~reorder:false s [ write_txn "b" "1"; read_txn "a" ] in
  check_int "both commit on an empty table" 2 (List.length o.Aria.committed)

(* The per-domain state keeps no string past its batch. Once a batch
   has returned and its outcome is dropped, a full major collection
   frees a key that only a cell held (the store's init leaves it absent,
   so the store does not keep it) and a conflicted transaction's written
   value, which only the write log held. *)
let held = Weak.create 2

let run_and_drop_batch () =
  let fresh s = Bytes.to_string (Bytes.of_string s) in
  let reader =
    mk (fun ctx ->
        let k = fresh "absent" in
        Weak.set held 0 (Some k);
        ignore (ctx.Txn.read k))
  in
  let loser =
    mk (fun ctx ->
        let v = fresh "lost" in
        Weak.set held 1 (Some v);
        ctx.Txn.write "w" v)
  in
  let o = Aria.execute_batch (Kvstore.create ()) [ write_txn "w" "first"; reader; loser ] in
  check_int "the second writer of w conflicts" 1 (List.length o.Aria.conflicted)

let test_aria_holds_nothing_past_batch () =
  run_and_drop_batch ();
  Gc.full_major ();
  check_bool "the absent key is collected" false (Weak.check held 0);
  check_bool "the conflicted value is collected" false (Weak.check held 1)

let test_aria_determinism () =
  (* Same batch against same state on two stores -> identical outcomes
     and states. *)
  let mk_store () =
    let s = Kvstore.create () in
    Kvstore.put s "a" "5";
    s
  in
  let mk_batch () =
    [ rmw_txn "a" 1; rmw_txn "a" 10; write_txn "b" "x"; read_txn "a" ]
  in
  let s1 = mk_store () and s2 = mk_store () in
  let o1 = Aria.execute_batch s1 (mk_batch ()) in
  let o2 = Aria.execute_batch s2 (mk_batch ()) in
  check_int "same commits"
    (List.length o1.Aria.committed)
    (List.length o2.Aria.committed);
  Alcotest.(check string)
    "same final state" (Kvstore.fingerprint s1) (Kvstore.fingerprint s2)

let test_aria_commit_rate () =
  let s = Kvstore.create () in
  let o = Aria.execute_batch s (List.init 4 (fun _ -> rmw_txn "k" 1)) in
  Alcotest.(check (float 1e-9)) "rate 0.25" 0.25 (Aria.commit_rate o);
  let o_empty = Aria.execute_batch s [] in
  Alcotest.(check (float 1e-9)) "empty rate 1.0" 1.0 (Aria.commit_rate o_empty)

let test_aria_smallbank_convergence () =
  (* End-to-end: two replicas executing the same entry stream of real
     SmallBank txns converge to identical stores. *)
  let scale = 0.0001 in
  let run () =
    let store =
      Kvstore.create ~init:(Workload.preload ~scale Workload.Smallbank) ()
    in
    let w = Workload.create ~scale Workload.Smallbank ~seed:77L in
    let pending = ref [] in
    for _ = 1 to 20 do
      let batch = !pending @ List.init 50 (fun _ -> Workload.next w) in
      let o = Aria.execute_batch store batch in
      pending := o.Aria.conflicted
    done;
    Kvstore.fingerprint store
  in
  Alcotest.(check string) "replicas converge" (run ()) (run ())

let test_aria_tpcc_hotspot_aborts () =
  (* A one-warehouse TPC-C batch is Payment-heavy on a single YTD row:
     the conflict rate must be visibly non-zero. *)
  let cfg = { Massbft_workload.Tpcc.default with Massbft_workload.Tpcc.warehouses = 1 } in
  let g = Massbft_workload.Tpcc.create cfg ~seed:15L in
  let store =
    Kvstore.create ~init:(Massbft_workload.Tpcc.preload cfg) ()
  in
  let batch = List.init 60 (fun _ -> Massbft_workload.Tpcc.next g) in
  let o = Aria.execute_batch store batch in
  check_bool
    (Printf.sprintf "hotspot causes conflicts (%d)" (List.length o.Aria.conflicted))
    true
    (List.length o.Aria.conflicted > 10)

let prop_aria_deterministic_partition =
  QCheck.Test.make ~name:"every txn lands in exactly one outcome bucket" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 30) (pair (int_range 0 5) (int_range 0 3)))
    (fun spec ->
      let s = Kvstore.create () in
      let batch =
        List.mapi
          (fun i (key, kind) ->
            let k = "k" ^ string_of_int key in
            match kind with
            | 0 -> Txn.make ~id:i ~label:"w" ~wire_size:1 (fun ctx -> ctx.Txn.write k "v")
            | 1 -> Txn.make ~id:i ~label:"r" ~wire_size:1 (fun ctx -> ignore (ctx.Txn.read k))
            | 2 ->
                Txn.make ~id:i ~label:"rmw" ~wire_size:1 (fun ctx ->
                    let v = Txn.int_value (Option.value ~default:"0" (ctx.Txn.read k)) in
                    ctx.Txn.write k (Txn.of_int (v + 1)))
            | _ -> Txn.make ~id:i ~label:"a" ~wire_size:1 (fun ctx -> ctx.Txn.abort ()))
          spec
      in
      let o = Aria.execute_batch s batch in
      List.length o.Aria.committed
      + List.length o.Aria.conflicted
      + List.length o.Aria.logic_aborted
      = List.length batch)

(* ------------------------------------------------------------------ *)
(* Aria fallback lane                                                  *)
(* ------------------------------------------------------------------ *)

let test_fallback_always_commits () =
  (* Ten hot-key increments through the fallback lane all commit in one
     round (unlike the parallel lane, where only one would). *)
  let s = Kvstore.create () in
  let batch = List.init 10 (fun _ -> rmw_txn "hot" 1) in
  let o = Aria.execute_batch ~fallback:batch s [] in
  check_int "all ten commit" 10 (List.length o.Aria.committed);
  check_int "none conflicted" 0 (List.length o.Aria.conflicted);
  check_bool "serial visibility: counter = 10" true
    (Kvstore.get s "hot" = Some "10")

let test_fallback_sees_parallel_writes () =
  (* The fallback lane runs after the parallel lane and observes its
     committed writes. *)
  let s = Kvstore.create () in
  let parallel = [ write_txn "k" "5" ] in
  let fb = [ rmw_txn "k" 1 ] in
  let o = Aria.execute_batch ~fallback:fb s parallel in
  check_int "both commit" 2 (List.length o.Aria.committed);
  check_bool "fallback read the parallel write" true
    (Kvstore.get s "k" = Some "6")

let test_fallback_logic_abort_final () =
  let s = Kvstore.create () in
  let fb = [ mk (fun ctx -> ctx.Txn.write "k" "x"; ctx.Txn.abort ()) ] in
  let o = Aria.execute_batch ~fallback:fb s [] in
  check_int "logic abort recorded" 1 (List.length o.Aria.logic_aborted);
  check_bool "write discarded" true (Kvstore.get s "k" = None)

let test_fallback_deterministic_order () =
  (* Fallback effects depend only on list order. *)
  let run () =
    let s = Kvstore.create () in
    let fb = [ write_txn "k" "first"; write_txn "k" "second" ] in
    ignore (Aria.execute_batch ~fallback:fb s []);
    Kvstore.get s "k"
  in
  check_bool "last writer wins, deterministically" true
    (run () = Some "second" && run () = Some "second")

(* ------------------------------------------------------------------ *)
(* Aria vs. the two-table oracle                                       *)
(* ------------------------------------------------------------------ *)

(* A transaction is a list of ops over a hot key space of eight keys. *)
type op =
  | Read of int
  | Blind of int * int  (* write a constant *)
  | Rmw of int * int  (* read, then write value + delta *)
  | Copy of int * int  (* read the first key, write its value to the second *)
  | Abort_above of int * int  (* read, logic-abort if the value exceeds *)

let shared_keys = Array.init 256 (fun k -> "h" ^ string_of_int k)

(* Odd-numbered ops pass the shared key string, even ones a fresh copy,
   so both physically equal and merely equal key strings reach [ctx]. *)
let key_of n k = if n land 1 = 1 then shared_keys.(k) else "h" ^ string_of_int k

let run_ops ops ctx =
  let value k = Txn.int_value (Option.value ~default:"0" (ctx.Txn.read k)) in
  List.iteri
    (fun n op ->
      match op with
      | Read k -> ignore (ctx.Txn.read (key_of n k))
      | Blind (k, v) -> ctx.Txn.write (key_of n k) (Txn.of_int v)
      | Rmw (k, d) ->
          let key = key_of n k in
          ctx.Txn.write key (Txn.of_int (value key + d))
      | Copy (a, b) -> ctx.Txn.write (key_of n b) (Txn.of_int (value (key_of n a)))
      | Abort_above (k, t) -> if value (key_of n k) > t then ctx.Txn.abort ())
    ops

(* Ops over keys [0, keys); [abort] weighs the logic-abort test. *)
let gen_op ?(abort = 1) keys =
  let open QCheck.Gen in
  let key = int_range 0 (keys - 1) in
  frequency
    [
      (3, map (fun k -> Read k) key);
      (2, map2 (fun k v -> Blind (k, v)) key (int_range 0 50));
      (4, map2 (fun k d -> Rmw (k, d)) key (int_range (-5) 5));
      (1, map2 (fun a b -> Copy (a, b)) key key);
      (abort, map2 (fun k t -> Abort_above (k, t)) key (int_range 0 30));
    ]

let gen_txn keys = QCheck.Gen.(list_size (int_range 0 6) (gen_op keys))

(* Consecutive batches over one store, each with its fallback lane and
   reordering flag: first a wide one over 256 keys, which touches well
   over 64 distinct keys and grows the batch table, then up to three
   over eight hot keys that the wide one also touched. *)
let gen_batches =
  QCheck.Gen.(
    let batch keys txns =
      triple bool (list_size txns (gen_txn keys)) (list_size (int_range 0 4) (gen_txn keys))
    in
    map2 (fun wide hot -> wide :: hot)
      (batch 256 (int_range 60 100))
      (list_size (int_range 1 3) (batch 8 (int_range 0 25))))

let show_op = function
  | Read k -> Printf.sprintf "R%d" k
  | Blind (k, v) -> Printf.sprintf "W%d=%d" k v
  | Rmw (k, d) -> Printf.sprintf "M%d%+d" k d
  | Copy (a, b) -> Printf.sprintf "C%d>%d" a b
  | Abort_above (k, t) -> Printf.sprintf "A%d>%d" k t

let show_batches bs =
  let txns l = String.concat " | " (List.map (fun t -> String.concat "," (List.map show_op t)) l) in
  String.concat "\n"
    (List.map
       (fun (reorder, txs, fb) -> Printf.sprintf "reorder=%b [%s] fallback [%s]" reorder (txns txs) (txns fb))
       bs)

let hot_init k = if Char.code k.[String.length k - 1] land 1 = 0 then Some "7" else None

let prop_aria_matches_oracle =
  QCheck.Test.make ~name:"cells Aria = two-table oracle (outcome, store)" ~count:500
    (QCheck.make ~print:show_batches gen_batches)
    (fun batches ->
      let s_new = Kvstore.create ~init:hot_init () in
      let s_old = Kvstore.create ~init:hot_init () in
      let id = ref 0 in
      let mk_txns = List.map (fun ops -> incr id; Txn.make ~id:!id ~label:"q" ~wire_size:1 (run_ops ops)) in
      let ids = List.map (fun (t : Txn.t) -> t.Txn.id) in
      List.for_all
        (fun (reorder, txs, fb) ->
          let txs = mk_txns txs and fallback = mk_txns fb in
          let n, effects = execute_logged ~reorder ~fallback s_new txs in
          let o = Aria_oracle.execute_batch ~reorder ~fallback s_old txs in
          ids n.Aria.committed = ids o.Aria_oracle.committed
          && ids n.Aria.conflicted = ids o.Aria_oracle.conflicted
          && ids n.Aria.logic_aborted = ids o.Aria_oracle.logic_aborted
          && n.Aria.reads = o.Aria_oracle.reads
          && n.Aria.writes = o.Aria_oracle.writes
          && effects = o.Aria_oracle.effects
          && Kvstore.size s_new = Kvstore.size s_old
          && String.equal (Kvstore.fingerprint s_new) (Kvstore.fingerprint s_old))
        batches)

(* A long fixed-seed TPC-C stream through both executors, as the engine
   feeds it: each batch's conflicted transactions run in the next
   batch's fallback lane. Twenty full 500-txn batches over four
   warehouses (hot districts, so every lane and conflict rule fires)
   grow the batch table; the small batches after them run in the grown
   table. *)
let test_aria_tpcc_matches_oracle () =
  let module Tpcc = Massbft_workload.Tpcc in
  let cfg = { Tpcc.default with Tpcc.warehouses = 4 } in
  let g = Tpcc.create cfg ~seed:2024L in
  let s_new = Kvstore.create ~init:(Tpcc.preload cfg) () in
  let s_old = Kvstore.create ~init:(Tpcc.preload cfg) () in
  let ids = List.map (fun (t : Txn.t) -> t.Txn.id) in
  let fallback = ref [] in
  List.iteri
    (fun i size ->
      let txs = List.init size (fun _ -> Tpcc.next g) in
      let n, effects = execute_logged ~fallback:!fallback s_new txs in
      let o = Aria_oracle.execute_batch ~fallback:!fallback s_old txs in
      let at what = Printf.sprintf "batch %d (%d txns): %s" i size what in
      let check_ids what a b = Alcotest.(check (list int)) (at what) (ids b) (ids a) in
      check_ids "committed" n.Aria.committed o.Aria_oracle.committed;
      check_ids "conflicted" n.Aria.conflicted o.Aria_oracle.conflicted;
      check_ids "logic aborted" n.Aria.logic_aborted o.Aria_oracle.logic_aborted;
      check_int (at "reads") o.Aria_oracle.reads n.Aria.reads;
      check_int (at "writes") o.Aria_oracle.writes n.Aria.writes;
      check_bool (at "effects") true (effects = o.Aria_oracle.effects);
      check_int (at "store size") (Kvstore.size s_old) (Kvstore.size s_new);
      Alcotest.(check string)
        (at "store fingerprint") (Kvstore.fingerprint s_old) (Kvstore.fingerprint s_new);
      fallback := n.Aria.conflicted)
    (List.init 20 (fun _ -> 500) @ [ 40; 1; 7; 120; 3 ])

(* A TPC-C batch over a store one insert below its 7/8 threshold.
   Every key the batch reads is faulted in first, so its reads insert
   nothing and find slots at the old capacity; the batch's second new
   row then grows the table during commit, and every later write must
   find its key's slot again rather than write where the read found
   it. *)
let test_aria_commit_grows_store () =
  let module Tpcc = Massbft_workload.Tpcc in
  let cfg = { Tpcc.default with Tpcc.warehouses = 4 } in
  let g = Tpcc.create cfg ~seed:99L in
  let txs = List.init 500 (fun _ -> Tpcc.next g) in
  let store () = Kvstore.create ~init:(Tpcc.preload cfg) () in
  let s_new = store () and s_old = store () in
  let fault_in s =
    let ctx =
      { Txn.read = Kvstore.get s; write = (fun _ _ -> ()); abort = (fun () -> raise Txn.Logic_abort) }
    in
    List.iter (fun (t : Txn.t) -> try t.Txn.body ctx with Txn.Logic_abort -> ()) txs
  in
  let fill s =
    fault_in s;
    let i = ref 0 in
    while 8 * (Kvstore.size s + 2) <= 7 * Kvstore.capacity s do
      Kvstore.put s ("filler/" ^ string_of_int !i) "0";
      incr i
    done
  in
  fill s_new;
  fill s_old;
  let size = Kvstore.size s_new and capacity = Kvstore.capacity s_new in
  fault_in s_new;
  check_int "the batch's reads fault in nothing more" size (Kvstore.size s_new);
  check_bool "the second insert doubles the table" true
    (8 * (size + 1) <= 7 * capacity && 8 * (size + 2) > 7 * capacity);
  let n, effects = execute_logged s_new txs in
  let o = Aria_oracle.execute_batch s_old txs in
  check_bool "the table doubled during the batch" true (Kvstore.capacity s_new > capacity);
  let ids = List.map (fun (t : Txn.t) -> t.Txn.id) in
  check_bool "committed" true (ids n.Aria.committed = ids o.Aria_oracle.committed);
  check_bool "conflicted" true (ids n.Aria.conflicted = ids o.Aria_oracle.conflicted);
  check_bool "effects" true (effects = o.Aria_oracle.effects);
  check_int "store size" (Kvstore.size s_old) (Kvstore.size s_new);
  Alcotest.(check string)
    "store fingerprint" (Kvstore.fingerprint s_old) (Kvstore.fingerprint s_new)

(* ------------------------------------------------------------------ *)
(* Phase 1 on two domains                                              *)
(* ------------------------------------------------------------------ *)

let multicore = Domain.recommended_domain_count () >= 2

(* Heavy transactions: 8 to 14 ops that never abort, a quarter of them
   ending in a logic-abort test, so a batch averages well over the
   gate's eight store operations per transaction. *)
let gen_heavy_txn keys =
  QCheck.Gen.(
    let tail =
      frequency
        [ (3, return []); (1, map2 (fun k t -> [ Abort_above (k, t) ]) (int_range 0 (keys - 1)) (int_range 0 30)) ]
    in
    map2 ( @ ) (list_size (int_range 8 14) (gen_op ~abort:0 keys)) tail)

(* Two to four consecutive heavy batches over one store, each of 64 to
   120 transactions (enough to pass the gate once an earlier batch was
   heavy) with a fallback lane, over 24 hot keys or 256 wide ones. *)
let gen_heavy_batches =
  QCheck.Gen.(
    let batch =
      int_range 0 1 >>= fun wide ->
      let keys = if wide = 1 then 256 else 24 in
      triple bool
        (list_size (int_range 64 120) (gen_heavy_txn keys))
        (list_size (int_range 0 6) (gen_heavy_txn keys))
    in
    list_size (int_range 2 4) batch)

let prop_split_matches_oracle =
  QCheck.Test.make ~name:"split batches = two-table oracle" ~count:150
    (QCheck.make ~print:show_batches gen_heavy_batches)
    (fun batches ->
      let s_new = Kvstore.create ~init:hot_init () in
      let s_old = Kvstore.create ~init:hot_init () in
      let id = ref 0 in
      let mk_txns = List.map (fun ops -> incr id; Txn.make ~id:!id ~label:"q" ~wire_size:1 (run_ops ops)) in
      let ids = List.map (fun (t : Txn.t) -> t.Txn.id) in
      let split0 = Aria.split_batches () in
      let same =
        List.for_all
          (fun (reorder, txs, fb) ->
            let txs = mk_txns txs and fallback = mk_txns fb in
            let n, effects = execute_logged ~reorder ~fallback s_new txs in
            let o = Aria_oracle.execute_batch ~reorder ~fallback s_old txs in
            ids n.Aria.committed = ids o.Aria_oracle.committed
            && ids n.Aria.conflicted = ids o.Aria_oracle.conflicted
            && ids n.Aria.logic_aborted = ids o.Aria_oracle.logic_aborted
            && n.Aria.reads = o.Aria_oracle.reads
            && n.Aria.writes = o.Aria_oracle.writes
            && effects = o.Aria_oracle.effects
            && Kvstore.size s_new = Kvstore.size s_old
            && String.equal (Kvstore.fingerprint s_new) (Kvstore.fingerprint s_old))
          batches
      in
      (* Every batch after the first is heavy enough to be split. *)
      same && ((not multicore) || Aria.split_batches () >= split0 + List.length batches - 1))

(* A TPC-C stream checked against the oracle batch by batch, on a store
   of its own: what each caller runs in the tests below. *)
let tpcc_stream_matches_oracle ~seed ~batches ~size =
  let module Tpcc = Massbft_workload.Tpcc in
  let cfg = { Tpcc.default with Tpcc.warehouses = 2 } in
  let g = Tpcc.create cfg ~seed in
  let s_new = Kvstore.create ~init:(Tpcc.preload cfg) () in
  let s_old = Kvstore.create ~init:(Tpcc.preload cfg) () in
  let ids = List.map (fun (t : Txn.t) -> t.Txn.id) in
  let fallback = ref [] in
  let ok = ref true in
  for _ = 1 to batches do
    let txs = List.init size (fun _ -> Tpcc.next g) in
    let n, effects = execute_logged ~fallback:!fallback s_new txs in
    let o = Aria_oracle.execute_batch ~fallback:!fallback s_old txs in
    ok :=
      !ok
      && ids n.Aria.committed = ids o.Aria_oracle.committed
      && ids n.Aria.conflicted = ids o.Aria_oracle.conflicted
      && ids n.Aria.logic_aborted = ids o.Aria_oracle.logic_aborted
      && n.Aria.reads = o.Aria_oracle.reads
      && n.Aria.writes = o.Aria_oracle.writes
      && effects = o.Aria_oracle.effects
      && Kvstore.size s_new = Kvstore.size s_old
      && String.equal (Kvstore.fingerprint s_new) (Kvstore.fingerprint s_old);
    fallback := n.Aria.conflicted
  done;
  !ok

(* The gate, on fresh executors (a spawned domain's state has no
   previous batch): TPC-C's first batch runs alone and every later one
   is offered to the helper on a host with two domains or more;
   YCSB-A's one-operation transactions never are. *)
let test_split_gate () =
  let count kind =
    Domain.join
      (Domain.spawn (fun () ->
           let w = Workload.create kind ~seed:5L in
           let store = Kvstore.create ~init:(Workload.preload kind) () in
           for _ = 1 to 4 do
             ignore (Aria.execute_batch store (List.init 500 (fun _ -> Workload.next w)))
           done;
           Aria.split_batches ()))
  in
  check_int "tpcc batches split" (if multicore then 3 else 0) (count Workload.Tpcc);
  check_int "ycsb-a batches split" 0 (count Workload.Ycsb_a)

(* Two domains run TPC-C streams at once on separate stores. They share
   one helper: whichever finds it held runs alone. *)
let test_split_concurrent_callers () =
  let other = Domain.spawn (fun () -> tpcc_stream_matches_oracle ~seed:31L ~batches:8 ~size:300) in
  let here = tpcc_stream_matches_oracle ~seed:32L ~batches:8 ~size:300 in
  check_bool "this domain's stream = oracle" true here;
  check_bool "the other domain's stream = oracle" true (Domain.join other)

(* A body that raises on the helper domain. The bodies below break the
   [ctx]-only contract on purpose: they compare [Domain.self] with the
   caller's and note where they ran, which is what is tested. *)
exception At of int

let test_split_exception () =
  let module Tpcc = Massbft_workload.Tpcc in
  let caller = Domain.self () in
  (* One heavy batch, so that the next batch on this executor passes
     the gate. *)
  let warm () =
    let cfg = { Tpcc.default with Tpcc.warehouses = 2 } in
    let g = Tpcc.create cfg ~seed:8L in
    ignore
      (Aria.execute_batch
         (Kvstore.create ~init:(Tpcc.preload cfg) ())
         (List.init 200 (fun _ -> Tpcc.next g)))
  in
  (* 96 positions. The caller's first body waits (a bounded spin) until
     the helper has run a body, which raises [At pos]; with
     [caller_raises] the caller then raises [At] at its own position. *)
  let attempt ~caller_raises =
    warm ();
    let helper_pos = Atomic.make (-1) and caller_pos = Atomic.make (-1) in
    let deadline = Sys.time () +. 5.0 in
    let body pos ctx =
      if Domain.self () <> caller then begin
        ignore (Atomic.compare_and_set helper_pos (-1) pos);
        raise (At pos)
      end;
      if Atomic.compare_and_set caller_pos (-1) pos then
        while Atomic.get helper_pos < 0 && Sys.time () < deadline do
          Domain.cpu_relax ()
        done;
      if caller_raises && Atomic.get helper_pos >= 0 then raise (At pos);
      for k = 0 to 9 do
        ctx.Txn.write ("e" ^ string_of_int ((pos + k) mod 40)) "1"
      done
    in
    let s = Kvstore.create () in
    let batch = List.init 96 (fun pos -> mk (body pos)) in
    match Aria.execute_batch s batch with
    | _ -> None
    | exception At p ->
        let bt = Printexc.get_raw_backtrace () in
        Some (p, bt, Atomic.get helper_pos, Atomic.get caller_pos, s)
  in
  (* The helper may not wake before the caller has claimed every chunk;
     then the batch commits and the attempt is repeated. *)
  let rec engaged ~caller_raises tries =
    match attempt ~caller_raises with
    | Some r -> Some r
    | None -> if tries > 1 then engaged ~caller_raises (tries - 1) else None
  in
  (* Without a second domain there is no helper to wait for. *)
  if multicore then begin
    let recording = Printexc.backtrace_status () in
    Printexc.record_backtrace true;
    let helper_only = engaged ~caller_raises:false 5 in
    let both = engaged ~caller_raises:true 5 in
    Printexc.record_backtrace recording;
    (match helper_only with
    | None -> Alcotest.fail "the helper ran no chunk in five batches"
    | Some (p, bt, h, _, s) ->
        check_int "the helper's raise propagates" h p;
        check_int "nothing applied" 0 (Kvstore.size s);
        match Printexc.backtrace_slots bt with
        | Some slots when Array.length slots > 0 -> (
            match Printexc.Slot.location slots.(0) with
            | Some loc ->
                Alcotest.(check string) "backtrace starts at the body's raise" "test/test_exec.ml"
                  loc.Printexc.filename
            | None -> ())
        | _ -> ());
    match both with
    | None -> Alcotest.fail "the helper ran no chunk in five batches"
    | Some (p, _, h, c, _) ->
        (* [c] is -1 when the helper claimed the first chunk and raised
           before the caller ran any body. *)
        check_int "the lowest position's raise propagates" (if c < 0 then h else min h c) p
  end;
  (* Both states were emptied: split batches still match the oracle,
     and a leftover reservation would abort this reader. *)
  check_bool "split batches after the raise = oracle" true
    (tpcc_stream_matches_oracle ~seed:33L ~batches:3 ~size:200);
  let s = Kvstore.create () in
  let o = Aria.execute_batch ~reorder:false s [ write_txn "b" "1"; read_txn "e1" ] in
  check_int "both commit on an empty table" 2 (List.length o.Aria.committed)

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per transaction on the execution layer's two
   macro-shaped inputs, and per call on its per-operation helpers. The
   counts are exact and deterministic for one compiler, except that a
   batch split between two domains loads a key that both touch once on
   each (TPC-C: 138.43-138.50 words), so a budget is the highest value
   measured on OCaml 5.1 plus 2% ([Budget]): one extra allocation per
   read breaks it. *)

(* Words per txn of one 500-txn batch of the full-scale workload's
   stream, over a store that 20 earlier batches have warmed, as the
   macro runs it: on the calling domain and on the helper domain, if
   the batch shared its phase 1 ([Gc.minor_words] counts only the
   calling domain). *)
let batch_words kind =
  let w = Workload.create kind ~seed:7L in
  let store = Kvstore.create ~init:(Workload.preload kind) () in
  let batch () = List.init 500 (fun _ -> Workload.next w) in
  for _ = 1 to 20 do ignore (Aria.execute_batch store (batch ())) done;
  let batch = batch () in
  let h0 = Aria.helper_minor_words () in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Aria.execute_batch store batch));
  let w1 = Gc.minor_words () in
  (w1 -. w0 +. float_of_int (Aria.helper_minor_words () - h0)) /. 500.0

let test_budget_tpcc () =
  Budget.check "tpcc 500-txn batch, per txn" ~measured:(batch_words Workload.Tpcc)
    ~budget:(138.5 *. 1.02)

let test_budget_ycsb () =
  Budget.check "ycsb-a 500-txn batch, per txn" ~measured:(batch_words Workload.Ycsb_a)
    ~budget:(6.310 *. 1.02)

(* A [for] loop, not [Array.iter]: its closure would be counted. *)
let words_per_call f inputs =
  let n = Array.length inputs in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (f (Array.unsafe_get inputs i)))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The store initializers run once per faulted key, [int_value] once per
   read value: neither may allocate. The keys cover every branch. *)
let test_budget_helpers () =
  let module Tpcc = Massbft_workload.Tpcc in
  let module Smallbank = Massbft_workload.Smallbank in
  let tpcc = Workload.preload Workload.Tpcc and smallbank = Workload.preload Workload.Smallbank in
  let tpcc_keys =
    [| Tpcc.district_next_oid_key ~w:3 ~d:4; Tpcc.stock_qty_key ~w:3 ~i:77;
       Tpcc.warehouse_tax_key 3; Tpcc.district_tax_key ~w:3 ~d:4;
       Tpcc.customer_balance_key ~w:3 ~d:4 ~c:5; Tpcc.stock_ytd_key ~w:1 ~i:2;
       Tpcc.order_line_key ~w:1 ~d:2 ~o:3 ~n:4; "sb/c/1"; ""; "tpcc" |]
  in
  let smallbank_keys =
    [| Smallbank.checking_key 12; Smallbank.savings_key 999_999; "sb/c/"; "sb/x/1"; "tpcc/w/1/tax"; "" |]
  in
  let ints =
    Array.map Txn.of_int
      [| 0; 7; -7; 100; 10_000; -123_456; 999_999_999_999_999_999; -999_999_999_999_999_999 |]
  in
  Budget.check "Tpcc.preload, per call" ~measured:(words_per_call tpcc tpcc_keys) ~budget:0.0;
  Budget.check "Smallbank.preload, per call" ~measured:(words_per_call smallbank smallbank_keys)
    ~budget:0.0;
  Budget.check "Txn.int_value, per call" ~measured:(words_per_call Txn.int_value ints) ~budget:0.0

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

let test_ledger_chain () =
  let l = Ledger.create () in
  check_int "empty" 0 (Ledger.height l);
  Alcotest.(check string) "genesis head" Ledger.genesis_hash (Ledger.head_hash l);
  let b1 = Ledger.append l ~gid:0 ~seq:1 ~txn_count:10 ~payload_digest:"d1" in
  let b2 = Ledger.append l ~gid:1 ~seq:1 ~txn_count:20 ~payload_digest:"d2" in
  check_int "height" 2 (Ledger.height l);
  Alcotest.(check string) "linked" b1.Ledger.block_hash b2.Ledger.prev_hash;
  Alcotest.(check string) "head" b2.Ledger.block_hash (Ledger.head_hash l);
  check_bool "verifies" true (Ledger.verify l)

let test_ledger_equal_prefix () =
  let build upto =
    let l = Ledger.create () in
    for i = 1 to upto do
      ignore (Ledger.append l ~gid:0 ~seq:i ~txn_count:1 ~payload_digest:"d")
    done;
    l
  in
  let a = build 5 and b = build 3 in
  check_int "prefix of 3" 3 (Ledger.equal_prefix a b);
  let c = Ledger.create () in
  ignore (Ledger.append c ~gid:9 ~seq:1 ~txn_count:1 ~payload_digest:"other");
  check_int "divergent chains share nothing" 0 (Ledger.equal_prefix a c)

let test_ledger_determinism () =
  let build () =
    let l = Ledger.create () in
    ignore (Ledger.append l ~gid:0 ~seq:1 ~txn_count:5 ~payload_digest:"p");
    ignore (Ledger.append l ~gid:1 ~seq:1 ~txn_count:7 ~payload_digest:"q");
    Ledger.head_hash l
  in
  Alcotest.(check string) "same blocks, same head" (build ()) (build ())

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "massbft_exec"
    [
      ( "kvstore",
        [
          Alcotest.test_case "basics" `Quick test_store_basics;
          Alcotest.test_case "lazy init" `Quick test_store_lazy_init;
          Alcotest.test_case "fingerprint" `Quick test_store_fingerprint;
          Alcotest.test_case "matches Hashtbl model" `Quick test_store_matches_model;
        ] );
      ( "aria",
        [
          Alcotest.test_case "no conflicts" `Quick test_aria_no_conflicts_all_commit;
          Alcotest.test_case "WAW first writer wins" `Quick test_aria_waw_first_writer_wins;
          Alcotest.test_case "snapshot reads" `Quick test_aria_snapshot_reads;
          Alcotest.test_case "standard rule aborts RAW" `Quick test_aria_standard_rule_aborts_raw;
          Alcotest.test_case "reordering limits" `Quick test_aria_reordering_saves_raw_only;
          Alcotest.test_case "RMW contention" `Quick test_aria_rmw_contention;
          Alcotest.test_case "logic abort discards" `Quick test_aria_logic_abort_discards_writes;
          Alcotest.test_case "logic abort unreserved" `Quick test_aria_logic_abort_holds_no_reservation;
          Alcotest.test_case "determinism" `Quick test_aria_determinism;
          Alcotest.test_case "commit rate" `Quick test_aria_commit_rate;
          Alcotest.test_case "smallbank convergence" `Quick test_aria_smallbank_convergence;
          Alcotest.test_case "tpcc hotspot aborts" `Quick test_aria_tpcc_hotspot_aborts;
          qt prop_aria_deterministic_partition;
          Alcotest.test_case "fallback always commits" `Quick test_fallback_always_commits;
          Alcotest.test_case "fallback sees parallel writes" `Quick test_fallback_sees_parallel_writes;
          Alcotest.test_case "fallback logic abort" `Quick test_fallback_logic_abort_final;
          Alcotest.test_case "fallback deterministic" `Quick test_fallback_deterministic_order;
          qt prop_aria_matches_oracle;
          Alcotest.test_case "tpcc stream = oracle" `Quick test_aria_tpcc_matches_oracle;
          Alcotest.test_case "commit grows the store" `Quick test_aria_commit_grows_store;
          Alcotest.test_case "context reset per txn" `Quick test_aria_context_reset_per_txn;
          Alcotest.test_case "body exception" `Quick test_aria_body_exception;
          Alcotest.test_case "nothing held past the batch" `Quick
            test_aria_holds_nothing_past_batch;
        ] );
      ( "split",
        [
          qt prop_split_matches_oracle;
          Alcotest.test_case "gate" `Quick test_split_gate;
          Alcotest.test_case "concurrent callers" `Quick test_split_concurrent_callers;
          Alcotest.test_case "body exception" `Quick test_split_exception;
        ] );
      ( "budget",
        [
          Alcotest.test_case "tpcc batch" `Quick test_budget_tpcc;
          Alcotest.test_case "ycsb-a batch" `Quick test_budget_ycsb;
          Alcotest.test_case "per-op helpers" `Quick test_budget_helpers;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "chain" `Quick test_ledger_chain;
          Alcotest.test_case "equal prefix" `Quick test_ledger_equal_prefix;
          Alcotest.test_case "determinism" `Quick test_ledger_determinism;
        ] );
    ]
