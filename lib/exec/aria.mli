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

    Layout: a batch keeps one cell per distinct key in a batch-local
    table, so each read or write hashes its key once (and a write to
    the key the transaction just read, not at all). A cell holds the
    key's pre-batch value, loaded from the store at most once per batch
    and only by a read that the reader's own writes do not satisfy, so
    the store faults in exactly the keys a per-read lookup would; and
    the key's two reservations, the smallest positions of a
    non-aborted writer and reader. Transactions buffer their reads and
    writes as cells; reservation and validation walk those lists and
    hash nothing. Committed writes reach the store through
    {!Kvstore.put}. The fallback lane runs against the store directly. *)

module Txn = Massbft_workload.Txn

type outcome = {
  committed : Txn.t list;  (** in batch order *)
  conflicted : Txn.t list;  (** deterministically aborted; retry later *)
  logic_aborted : Txn.t list;  (** rolled back by their own logic *)
  reads : int;  (** total read operations executed *)
  writes : int;  (** total write operations executed *)
  effects : (string * string) list;
      (** every store write the batch performed, in application order —
          the batch's cumulative mutation of the store. A node holding
          an identical pre-batch store reaches the identical post-state
          by replaying these with {!apply_effects}, skipping
          re-execution; this is how replica stores under
          [independent_stores] avoid paying the full Aria pass per
          group. *)
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

val apply_effects : Kvstore.t -> outcome -> unit
(** Replays [o.effects] onto [store]. Given the store state the batch
    originally executed against, this reproduces the post-batch store
    exactly (deterministic replication by write-set shipping). *)

val commit_rate : outcome -> float
(** committed / (committed + conflicted), 1.0 for empty batches. *)
