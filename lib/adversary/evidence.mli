(** Accountability evidence: HMAC-signed records of the attributable
    protocol messages compromised nodes emit, and the machine-checkable
    conflict pairs that prove equivocation (see DESIGN.md "Adversary
    model").

    Two signed records from the same signer claiming different values
    for the same consensus slot are a self-contained proof of
    misbehavior: {!verify_pair} checks it against nothing but the
    signer's key, the way accountable-BFT forensics verify conflicting
    signed votes. The simulator stands in the signature scheme with
    per-node HMAC keys derived from a master secret. *)

type signed = {
  e_signer : string;  (** "g0/n1" — the node the message is signed by *)
  e_kind : string;
      (** "pbft-pre-prepare" | "pbft-prepare" | "pbft-commit" |
          "raft-append" *)
  e_gid : int;  (** consensus scope: PBFT group id, or Raft instance *)
  e_seq : int;  (** PBFT local sequence number, or Raft log index *)
  e_slot : string;  (** slot discriminator: ["v<view>"] or ["t<term>"] *)
  e_claim : string;  (** the claimed value (digest or payload id) *)
  e_tag : string;  (** 32-byte HMAC over the canonical field encoding *)
}

type pair = { first : signed; second : signed }

val default_master : string

val sign :
  master:string ->
  signer:string ->
  kind:string ->
  gid:int ->
  seq:int ->
  slot:string ->
  claim:string ->
  signed

val verify_signed : master:string -> signed -> bool
(** Recomputes the signer's derived key and checks the tag (constant
    time, via {!Massbft_crypto.Hmac.verify}). *)

val verify_pair : master:string -> pair -> bool
(** A valid conflict: same signer, kind and slot; different claims; both
    signatures verify. *)

val signed_to_string : signed -> string
(** One line; claim and tag hex-encoded so raw digest bytes travel. *)

val pair_to_string : pair -> string
(** Two lines, newline-terminated — the artifact format. *)

val signed_of_string : string -> signed
val pair_of_string : string -> pair
(** Inverses of the printers; raise {!Massbft_sim.Timed_line.Parse_error}
    on malformed input. *)

(** {1 The evidence log}

    {!Adversary} records every attributable message a compromised node
    emits; the log deduplicates claims per slot and detects conflicts
    incrementally (at most one pair per slot, so the log stays bounded
    under sustained equivocation). *)

type log

val create_log : ?master:string -> unit -> log

val observe :
  log ->
  signer:string ->
  kind:string ->
  gid:int ->
  seq:int ->
  slot:string ->
  claim:string ->
  unit
(** Sign and record one emitted claim (idempotent per distinct claim). *)

val recorded : log -> int
(** Distinct signed records held. *)

val conflicts : log -> pair list
(** Oldest first. *)

val first_conflict : log -> pair option

val conflict_for : log -> gid:int -> seq:int -> pair option
(** The first conflict recorded for a consensus slot — what the
    invariant checkers attach to a safety violation at that slot. *)

val verify : log -> pair -> bool
(** {!verify_pair} under the log's master secret. *)
