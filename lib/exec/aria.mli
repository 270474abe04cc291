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

    Layout: a batch keeps one cell per distinct key in a batch table,
    so each read or write hashes its key once (and a write to the key
    the transaction just read, not at all). A cell holds the key's
    pre-batch value, loaded from the store at most once per batch and
    only by a read that the reader's own writes do not satisfy, so the
    store faults in exactly the keys a per-read lookup would; and the
    key's two reservations, the smallest positions of a non-aborted
    writer and reader. Transactions buffer their reads and writes as
    cells; reservation and validation walk those lists and hash
    nothing. Committed writes reach the store through
    {!Kvstore.put_hashed}. The fallback lane runs against the store
    directly.

    The batch table is kept per domain and emptied at the end of every
    batch (also when a body raises), so its bucket array is sized once
    by the largest batch rather than regrown in each; emptying it visits
    only the buckets the batch filled. A call is therefore not
    re-entrant: a transaction body must not run [execute_batch] itself.
    The outcome keeps the committed transactions' write chains, and
    {!effects} reads the store mutation back from them on demand. *)

module Txn = Massbft_workload.Txn

type applied
(** The write chains of a batch's committed transactions. *)

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
    batch's cumulative mutation of the store. Built on demand from the
    committed transactions' write chains; nothing is copied while the
    batch runs. *)

val without_writes : outcome -> outcome
(** [o] with no write chains: its {!effects} are empty. For a holder
    that keeps [o] after its writes are applied (the engine's
    execute-once memo), so that the chains and the key cells they point
    to are not kept alive with it. *)

val commit_rate : outcome -> float
(** committed / (committed + conflicted), 1.0 for empty batches. *)
