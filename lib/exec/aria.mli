(** Aria deterministic concurrency control (Lu et al., VLDB 2020) — the
    execution engine the paper uses so that every node, given the same
    ordered stream of entries, computes the identical database state
    with no coordination.

    A batch executes in two phases: every transaction first runs against
    the same snapshot (reads see the pre-batch store plus the
    transaction's own writes), then reservations decide commits
    deterministically from batch positions alone:

    - standard rule: abort T iff raw(T) or waw(T);
    - with deterministic reordering ([`reorder`]): abort T iff waw(T) or
      (raw(T) and war(T)) — transactions with only one conflict
      direction are serialized logically instead of aborted.

    Conflict-aborted transactions are returned for re-execution in a
    later batch (the engine prepends them to the next entry). Logic
    aborts (e.g. TPC-C's 1 % invalid-item rollback, SmallBank overdraft
    refusals) are final.

    Layout: execution state is kept per domain in flat arrays that
    every batch reuses, so the executor allocates no cell record per
    key, list cell per read or chain node per write. A cell, one per distinct key the batch touches, is
    an int index into arrays of keys, hashes, bucket-chain links,
    pre-batch values and reservations; each read or write hashes its
    key once into int bucket heads (and a write to the key the
    transaction just read, not at all). A cell's pre-batch value is
    loaded from the store at most once per batch and only by a read
    that the reader's own writes do not satisfy, so the store faults in
    exactly the keys a per-read lookup would. Its reservations are the
    smallest positions of a non-aborted writer and reader. A
    transaction's reads and writes are ranges of two batch logs (cell
    ids for reads; cell id and value for writes), found by its batch
    position; reservation, validation and commit walk those ranges and
    hash nothing. Committed writes reach the store through the slot
    where the cell's load found its key, or through
    {!Kvstore.put_hashed} if the store has grown since. The fallback
    lane runs against the store directly, through the same state.

    The state is emptied at the end of every batch (also when a body
    raises) by visiting only the cells and log slots the batch used, so
    clearing costs the batch, not the largest batch seen. Their key,
    pre-batch value and written value slots are reset, so no string
    outlives its batch there. A call is therefore not re-entrant: a
    transaction body must not run [execute_batch] itself. The outcome
    keeps the committed writes, copied once per batch into two arrays,
    and {!effects} reads the store mutation back from them on demand. *)

module Txn = Massbft_workload.Txn

type applied
(** The writes of a batch's committed transactions, in application
    order. *)

type outcome = {
  committed : Txn.t list;  (** in batch order *)
  conflicted : Txn.t list;  (** deterministically aborted; retry later *)
  logic_aborted : Txn.t list;  (** rolled back by their own logic *)
  reads : int;  (** total read operations executed *)
  writes : int;  (** total write operations executed *)
  applied : applied;
      (** the committed transactions' buffered writes; read them
          through {!effects} *)
}

val execute_batch :
  ?reorder:bool -> ?fallback:Txn.t list -> Kvstore.t -> Txn.t list -> outcome
(** Runs one batch to completion and applies the committed writes to the
    store. Deterministic: same store state + same batch (same order)
    gives the same outcome and post-state, regardless of platform.

    [fallback] carries transactions that already conflicted in an
    earlier batch: per Aria's deterministic fallback they execute
    serially, in list order, after the parallel phase — each sees the
    preceding ones' writes — and always commit (unless their own logic
    aborts). This bounds retries to one round and prevents hot-key
    livelock. *)

val effects : outcome -> (string * string) list
(** Every store write the batch performed, in application order — the
    batch's cumulative mutation of the store. Built on demand from
    the outcome's [applied] writes. *)

val without_writes : outcome -> outcome
(** [o] without its committed writes: its {!effects} are empty. For a
    holder that keeps [o] after its writes are applied (the engine's
    execute-once memo), so that the written keys and values are not
    kept alive with it. *)

val commit_rate : outcome -> float
(** committed / (committed + conflicted), 1.0 for empty batches. *)
