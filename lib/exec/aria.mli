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
    key, list cell per read or chain node per write. A cell, one per
    distinct key the batch touches, is an int index into arrays of
    keys, hashes, bucket-chain links, pre-batch values and
    reservations; each read or write hashes its key once into int
    bucket heads (and a write to the key the transaction just read, not
    at all). A cell's pre-batch value is found in the store at most
    once per batch and only by a read that the reader's own writes do
    not satisfy. Phase 1 never writes the store: a read of a cold row
    takes the initializer's value, and the row is inserted after phase
    1 at the empty slot the read found, so the store faults in exactly
    the keys a per-read lookup would. A cell's reservations are the
    smallest positions of a non-aborted writer and reader. A
    transaction's reads and writes are ranges of two batch logs (cell
    ids for reads; cell id and value for writes), found by its batch
    position; reservation, validation and commit walk those ranges and
    hash nothing. Committed writes reach the store through the slot
    where the cell's read found its key, or through
    {!Kvstore.put_hashed} if the store has grown since. The fallback
    lane runs against the store directly, through the same state.

    Phase 1 on two domains: when the executor's previous batch averaged
    at least eight store operations per transaction (TPC-C; never
    YCSB's one) and the batch holds at least 64 transactions, the
    calling domain shares its phase 1 with one persistent helper
    domain, spawned by the first such batch when
    [Domain.recommended_domain_count () >= 2]. Both claim chunks of
    eight consecutive positions from an atomic counter and log into
    their own states; the caller then folds the helper's reservations
    into its own as minima and runs validation, commit and the fallback
    lane alone, in batch order. A caller that finds the helper held by
    another domain runs alone. Outcomes, the store's contents and the
    writes applied do not depend on which domain ran which chunk; only
    the store's slot layout may, which {!Kvstore.fingerprint} ignores.
    A transaction body may therefore run on another domain than the
    caller's, concurrently with other bodies of its batch: it must
    touch nothing but its [ctx] (the workloads' bodies read only
    values captured when the transaction was generated).

    The state is emptied at the end of every batch (also when a body
    raises) by visiting only the cells and log slots the batch used, so
    clearing costs the batch, not the largest batch seen. Their key,
    pre-batch value and written value slots are reset, so no string
    outlives its batch there. If bodies raise on both domains, the
    exception of the lowest batch position propagates, with its
    backtrace, as a sequential phase 1 would have met it first. A call
    is not re-entrant: a transaction body must not run [execute_batch]
    itself. *)

module Txn = Massbft_workload.Txn

type outcome = {
  committed : Txn.t list;  (** in batch order *)
  conflicted : Txn.t list;  (** deterministically aborted; retry later *)
  logic_aborted : Txn.t list;  (** rolled back by their own logic *)
  reads : int;  (** total read operations executed *)
  writes : int;  (** total write operations executed *)
}

val execute_batch :
  ?reorder:bool ->
  ?fallback:Txn.t list ->
  ?on_write:(string -> string -> unit) ->
  Kvstore.t ->
  Txn.t list ->
  outcome
(** Runs one batch to completion and applies the committed writes to the
    store. Deterministic: same store state + same batch (same order)
    gives the same outcome and post-state, regardless of platform.

    [fallback] carries transactions that already conflicted in an
    earlier batch: per Aria's deterministic fallback they execute
    serially, in list order, after the parallel phase — each sees the
    preceding ones' writes — and always commit (unless their own logic
    aborts). This bounds retries to one round and prevents hot-key
    livelock.

    [on_write k v] is called for every store write the batch performs,
    in application order, on the calling domain: the batch's cumulative
    mutation of the store. *)

val commit_rate : outcome -> float
(** committed / (committed + conflicted), 1.0 for empty batches. *)

val split_batches : unit -> int
(** The batches whose phase 1 the calling domain's executor has offered
    to the helper domain. For tests: no report or export reads it. *)

val helper_minor_words : unit -> int
(** The minor-heap words the helper domain allocated running the
    calling domain's batches. [Gc.minor_words] counts only the calling
    domain, so an allocation budget adds this to it. *)
