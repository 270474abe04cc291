(** The transaction representation shared by the workloads, the Aria
    executor and the protocol engine.

    A transaction is a deterministic program over a key-value interface:
    the body reads and writes string keys through the context handed to
    it, and the executor decides what those reads observe and where the
    writes land (snapshot + write-buffer under Aria). Running the same
    body against the same store state always produces the same read and
    write sets — the property deterministic databases rely on.

    [wire_size] is the transaction's size on the network in bytes; the
    paper reports average sizes of 201 B (YCSB-A), 150 B (YCSB-B),
    108 B (SmallBank) and 232 B (TPC-C), which the generators
    reproduce. *)

type ctx = {
  read : string -> string option;
  write : string -> string -> unit;
  abort : unit -> unit;
      (** logic-level abort (e.g. TPC-C 1% rollback); the txn's writes
          are discarded but it still counts as processed *)
}

type t = {
  id : int;  (** unique within its generating client stream *)
  label : string;  (** e.g. "ycsb.read", "tpcc.neworder" *)
  wire_size : int;  (** bytes on the wire, including signature *)
  body : ctx -> unit;
}

val make : id:int -> label:string -> wire_size:int -> (ctx -> unit) -> t

exception Logic_abort
(** Raised by [ctx.abort]; executors catch it. *)

val int_value : string -> int
(** Decodes an integer stored as a value; 0 for absent/garbage (store
    values in this codebase are decimal strings). A valid value decodes
    without allocating. *)

val of_int : int -> string
