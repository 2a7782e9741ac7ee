(** Out-of-band format meta-data.

    A self-describing binary encoding of format descriptions, shipped once
    per (connection, format) before the first record of that format.
    Following the paper, the meta-data for a format may also carry a set of
    {e retro-transformations}: for each, the full description of the target
    format plus the Ecode source text that converts a message into it
    (Figure 1).  The code travels as an opaque string at this layer; the
    morphing layer parses and compiles it. *)

(** One transformation on offer: source (defaulting to the base format),
    target format and Ecode source text.  Inside the snippet the incoming
    message is bound to [new] and the outgoing message to [old], as in the
    paper's Figure 5.  Explicit sources let a format ship a {e chain} of
    transformations (Figure 1: Rev 2.0 -> Rev 1.0 -> Rev 0.0); receivers
    compose the hops. *)
type xform_spec = {
  source : Ptype.record option;
  target : Ptype.record;
  code : string;
}

type format_meta = {
  body : Ptype.record;
  xforms : xform_spec list;
}

(** Meta-data with no transformations attached. *)
val plain : Ptype.record -> format_meta

(** The most transformations one meta may carry: 64.  {!decode} rejects
    more, naming the count, and [Morph.meta] refuses to build more. *)
val max_xforms : int

(** The most bytes an encoded meta may take: 64 KiB.  {!decode} rejects
    longer input before reading it, naming its length and the limit. *)
val max_bytes : int

exception Meta_error of string

(** Serialise to the out-of-band wire form. *)
val encode : format_meta -> string

(** Parse meta-data received from a peer. *)
val decode : string -> (format_meta, Err.t) result

(** Structural identity of a full meta block (body {e and}
    transformations); receiver caches key on this. *)
val equal : format_meta -> format_meta -> bool

(** A hash consistent with {!equal}.  Every transformation's source,
    target and code counts, however long the chain: the gateway routes on
    it as the format fingerprint. *)
val hash : format_meta -> int
