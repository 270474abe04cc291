(** The Byzantine adversary engine (see DESIGN.md "Adversary model").

    Compiles an {!Adv_spec} plan into a message-level interposer on the
    engine's typed send path ({!Massbft.Node_ctx.adv_hook}). Where the
    fault injector's topology hook sees only message sizes — so it can
    drop, delay or duplicate but never lie — this hook sees the typed
    protocol message and can forge, fork, withhold, replay, delay and
    tamper per destination. [Leader g] targets re-resolve at every send,
    so attacks adapt to view changes.

    Every attributable message a compromised node emits is recorded in
    an {!Evidence} log under that node's derived key; an equivocation
    that violates safety is then provable by a conflicting signed pair.

    With an empty plan, {!arm} installs no hook and schedules nothing:
    runs are bit-identical to runs without an adversary attached. *)

module Topology = Massbft_sim.Topology

type t

val create :
  ?trace:Massbft_trace.Trace.t ->
  ?registry:Massbft_obs.Registry.t ->
  ?evidence:Evidence.log ->
  spec:Topology.spec ->
  plan:Adv_spec.plan ->
  Massbft.Engine.t ->
  Massbft_sim.Sim.t ->
  t
(** Raises [Invalid_argument] if the plan fails
    {!Adv_spec.validate} against the deployment shape. *)

val arm : t -> unit
(** Installs the interposer and schedules the plan's activation windows.
    Also arms the engine's progress watchdogs (Byzantine misbehavior
    stalls slots without crashing anyone, so recovery needs the
    watchdog-driven view changes). Strict no-op for an empty plan. Call
    once, before [Sim.run]. *)

val plan : t -> Adv_spec.plan
(** The validated plan, sorted by activation time. *)

val injected_total : t -> int
(** Messages interfered with so far (forged, dropped, replayed, delayed
    or tampered — not messages passed through untouched). *)

val evidence : t -> Evidence.log
(** The accountability log (shared with the caller if one was passed to
    {!create}). *)

val is_compromised : t -> Topology.addr -> bool
(** True once [a] has ever matched an active strategy's target — the
    run's (sticky) compromised set. Invariant checkers use this to
    restrict safety comparisons to honest replicas. *)

val tampered_tag : string -> string
(** The one fake root tag [tamper] stamps on an entry's chunks. *)
