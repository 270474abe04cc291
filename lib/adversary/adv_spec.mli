(** The adversary-strategy DSL (see DESIGN.md "Adversary model").

    A plan is a list of timed Byzantine strategies compiled by
    {!Adversary} into a message-level interposer on the engine's typed
    send path. Every strategy has a stable one-line text form so a plan
    travels as readable lines — a CI artifact, a
    [massbft run --adversary FILE] input, a shrunk reproducer — and
    parses back into exactly the same attack:

    {v
    @2 equivocate leader:g0 for 3
    @2 withhold node:g0/n1 for 2.5
    @4 split-votes node:g1/n2 for 2
    @1 replay leader:g2 copies 2 gap 0.25 for 2
    @2 delay-valid node:g1/n2 add 0.3 for 1.5
    @6 tamper node:g0/n3 for 10
    v} *)

module Topology = Massbft_sim.Topology

(** Who misbehaves. [Leader gid] is adaptive: resolved at every send to
    whichever node currently holds the group's acting-leader role, so
    the attack follows view changes and leader migrations. *)
type target = Node of Topology.addr | Leader of int

type strategy =
  | Equivocate of { target : target; for_s : float }
      (** send conflicting PBFT pre-prepares (and matching forged
          prepare/commit votes) to different halves of the group *)
  | Equivocate_raft of { target : target; for_s : float }
      (** send conflicting global Raft append payloads to different
          receiver groups (exceeds Raft's crash-only fault model) *)
  | Withhold of { target : target; for_s : float }
      (** serve each pre-prepare to a quorum-minus-one subset only, so
          no slot proposed in the window can gather a commit quorum *)
  | Split_votes of { target : target; for_s : float }
      (** fork outgoing view-change votes across two target views *)
  | Replay of { target : target; copies : int; gap_s : float; for_s : float }
      (** re-emit valid control messages [copies] extra times, spaced
          [gap_s] apart — tests vote-set and delivery idempotence *)
  | Delay_valid of { target : target; add_s : float; for_s : float }
      (** delay valid control messages by [add_s] before emitting *)
  | Tamper of { target : target; for_s : float }
      (** corrupt outgoing replication chunks (the paper's §VI-E
          colluding-encoder attack, previously a config knob) *)

type event = { at : float; strategy : strategy }
type plan = event list

val kind_name : strategy -> string
(** Stable snake_case kind labels ("equivocate", "split_votes", ...)
    used by metrics and trace spans. *)

val kind_names : string list
(** The dashed text-form strategy names — the vocabulary accepted by
    [massbft drill --adversary]. *)

val target_of : strategy -> target
val window_of : strategy -> float

val strategy_to_string : strategy -> string
val event_to_string : event -> string

val to_string : plan -> string
(** One event per line, each terminated by a newline. *)

val of_string : string -> plan
(** Parses the {!to_string} form with {!Massbft_sim.Timed_line.read}:
    blank lines and [#] comment lines are skipped, and malformed input
    raises {!Massbft_sim.Timed_line.Parse_error} naming the line;
    [of_string (to_string p)] reproduces [p] exactly. *)

val validate : group_sizes:int array -> plan -> (unit, string) result
(** Structural checks against a deployment shape: targets in range,
    positive windows, replay copies >= 1 with positive gap, positive
    delay. *)

val heal_time : plan -> float
(** Time by which the adversary's last strategy window has closed (every
    strategy is windowed, so a plan always heals). 0 for the empty
    plan. *)

val sorted : plan -> plan
(** Stable sort by activation time. *)
