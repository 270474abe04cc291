(* Accountability evidence: HMAC-signed records of the protocol
   messages a compromised node emits, and the machine-checkable
   conflict pairs that prove equivocation.

   The model follows accountable-BFT practice (PeerReview, BFT
   forensics): every attributable protocol message a node sends is
   signed by that node, so two signed messages from the same signer
   claiming different values for the same consensus slot are a
   self-contained, third-party-verifiable proof of misbehavior — no
   trust in the reporter needed, only the signer's key. The simulator
   stands in the signature scheme with per-node HMAC keys derived from
   a master secret ({!Massbft_crypto.Hmac}); [verify_signed] plays the
   role of public-key verification. *)

module Hmac = Massbft_crypto.Hmac
module Hexdump = Massbft_util.Hexdump
module T = Massbft_sim.Timed_line

type signed = {
  e_signer : string;  (* "g0/n1" — the node the message is signed by *)
  e_kind : string;  (* "pbft-pre-prepare" | "pbft-prepare" | ... *)
  e_gid : int;  (* consensus scope: PBFT group, or Raft instance *)
  e_seq : int;  (* PBFT local sequence, or Raft log index *)
  e_slot : string;  (* slot discriminator: "v<view>" or "t<term>" *)
  e_claim : string;  (* the claimed value (digest / payload id) *)
  e_tag : string;  (* 32-byte HMAC over the canonical bytes *)
}

type pair = { first : signed; second : signed }

let default_master = "massbft-evidence-v1"

(* Per-signer keys derived from the master secret, standing in for each
   node's signing key. *)
let signer_key ~master signer = Hmac.mac ~key:master ("node:" ^ signer)

(* Length-prefixed canonical encoding: claims are raw digest bytes and
   may contain any character, so field concatenation must be
   unambiguous. *)
let canonical ~signer ~kind ~gid ~seq ~slot ~claim =
  let field s = Printf.sprintf "%d:%s" (String.length s) s in
  String.concat ""
    [
      field signer;
      field kind;
      field (string_of_int gid);
      field (string_of_int seq);
      field slot;
      field claim;
    ]

let sign ~master ~signer ~kind ~gid ~seq ~slot ~claim =
  let bytes = canonical ~signer ~kind ~gid ~seq ~slot ~claim in
  {
    e_signer = signer;
    e_kind = kind;
    e_gid = gid;
    e_seq = seq;
    e_slot = slot;
    e_claim = claim;
    e_tag = Hmac.mac ~key:(signer_key ~master signer) bytes;
  }

let verify_signed ~master s =
  let bytes =
    canonical ~signer:s.e_signer ~kind:s.e_kind ~gid:s.e_gid ~seq:s.e_seq
      ~slot:s.e_slot ~claim:s.e_claim
  in
  Hmac.verify ~key:(signer_key ~master s.e_signer) ~msg:bytes ~tag:s.e_tag

(* A valid conflict pair: same signer claiming two different values for
   the same consensus slot, both claims carrying valid signatures. *)
let verify_pair ~master { first = a; second = b } =
  String.equal a.e_signer b.e_signer
  && String.equal a.e_kind b.e_kind
  && a.e_gid = b.e_gid
  && a.e_seq = b.e_seq
  && String.equal a.e_slot b.e_slot
  && (not (String.equal a.e_claim b.e_claim))
  && verify_signed ~master a
  && verify_signed ~master b

(* ------------------------------------------------------------------ *)
(* Text form                                                           *)
(* ------------------------------------------------------------------ *)

(* One signed record per line; slots are space-free, claims and tags
   travel hex-encoded so raw digest bytes round-trip. *)
let signed_to_string s =
  Printf.sprintf "signed %s %s %d %d %s %s %s" s.e_signer s.e_kind s.e_gid
    s.e_seq s.e_slot
    (Hexdump.encode s.e_claim)
    (Hexdump.encode s.e_tag)

let pair_to_string p =
  signed_to_string p.first ^ "\n" ^ signed_to_string p.second ^ "\n"

let signed_of_string line =
  match T.tokens line with
  | [ "signed"; signer; kind; gid; seq; slot; claim; tag ] ->
      let hex what s =
        match Hexdump.decode s with
        | v -> v
        | exception Invalid_argument _ -> T.fail "bad %s hex %S" what s
      in
      {
        e_signer = signer;
        e_kind = kind;
        e_gid = T.int "gid" gid;
        e_seq = T.int "seq" seq;
        e_slot = slot;
        e_claim = hex "claim" claim;
        e_tag = hex "tag" tag;
      }
  | _ -> T.fail "bad evidence line %S" line

let pair_of_string text =
  match
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  with
  | [ a; b ] -> { first = signed_of_string a; second = signed_of_string b }
  | lines -> T.fail "evidence pair needs exactly 2 lines, got %d" (List.length lines)

(* ------------------------------------------------------------------ *)
(* The evidence log                                                    *)
(* ------------------------------------------------------------------ *)

(* Records are deduplicated per (signer, kind, gid, seq, slot, claim);
   the first time a second distinct claim appears for a slot key, the
   pair is appended to the conflict list (at most one pair per slot key
   keeps the log bounded under sustained equivocation). *)
type log = {
  master : string;
  by_slot : (string, (string, signed) Hashtbl.t) Hashtbl.t;
      (* slot key -> claim -> signed record *)
  conflicted : (string, unit) Hashtbl.t;
  mutable conflicts_rev : pair list;
  mutable recorded : int;
}

let create_log ?(master = default_master) () =
  {
    master;
    by_slot = Hashtbl.create 64;
    conflicted = Hashtbl.create 8;
    conflicts_rev = [];
    recorded = 0;
  }

let observe log ~signer ~kind ~gid ~seq ~slot ~claim =
  let key = canonical ~signer ~kind ~gid ~seq ~slot ~claim:"" in
  let claims =
    match Hashtbl.find_opt log.by_slot key with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 2 in
        Hashtbl.replace log.by_slot key tbl;
        tbl
  in
  if not (Hashtbl.mem claims claim) then begin
    let s = sign ~master:log.master ~signer ~kind ~gid ~seq ~slot ~claim in
    (* Conflict detection before insertion: the table holds exactly the
       other claims this signer made for the slot. *)
    (if (not (Hashtbl.mem log.conflicted key)) && Hashtbl.length claims > 0
     then
       let other =
         Hashtbl.fold (fun _ v acc -> Some (Option.value acc ~default:v)) claims
           None
       in
       match other with
       | Some first ->
           Hashtbl.replace log.conflicted key ();
           log.conflicts_rev <- { first; second = s } :: log.conflicts_rev
       | None -> ());
    Hashtbl.replace claims claim s;
    log.recorded <- log.recorded + 1
  end

let recorded log = log.recorded
let conflicts log = List.rev log.conflicts_rev

let first_conflict log =
  match List.rev log.conflicts_rev with [] -> None | p :: _ -> Some p

let conflict_for log ~gid ~seq =
  List.find_opt
    (fun p -> p.first.e_gid = gid && p.first.e_seq = seq)
    (List.rev log.conflicts_rev)

let verify log p = verify_pair ~master:log.master p
