(** Connection endpoints implementing PBIO's out-of-band meta-data protocol
    over the simulated network.

    A writer pushes a format's meta-data (description plus attached
    retro-transformations) to each peer once, before the first record of
    that format, so every Data frame carries only a small integer id.  A
    receiver that lacks the meta for an id (e.g. it restarted) parks the
    message and sends a [Meta_request]; the peer replies and parked
    messages flush in order.

    The endpoint survives a lossy network: parked queues are bounded,
    unanswered [Meta_request]s are retried with exponential backoff (and
    eventually given up on, dropping the parked messages rather than
    leaking them), and an endpoint created with [~reliable:true] runs a
    sequence-number + ack + retransmit protocol with duplicate
    suppression, declaring a peer failed when its retransmit budget is
    exhausted.  See docs/FAULTS.md. *)

open Pbio

type message_handler = src:Contact.t -> Meta.format_meta -> Value.t -> unit

(** Raw delivery: the complete, undecoded wire message plus its format
    meta-data.  Lets a receiver run a fused decode->morph plan instead of
    decoding into the sender's layout first. *)
type wire_handler = src:Contact.t -> Meta.format_meta -> string -> unit

type peer_key = {
  peer : Contact.t;
  id : int;
}

type stats = {
  mutable records_sent : int;
  mutable records_delivered : int;  (** handed to the message handler *)
  mutable retransmits : int;
  mutable acks_received : int;
  mutable duplicates_suppressed : int;
  mutable meta_requests : int;  (** sent, retries included *)
  mutable meta_retries : int;
  mutable parked_evicted : int;  (** oldest-first overflow evictions *)
  mutable parked_dropped : int;  (** dropped when meta retries ran out *)
  mutable peer_failures : int;
}

type endpoint

(** Create an endpoint and register it on the network.  [endian] is the
    sender's native byte order (receivers handle either).  [reliable]
    turns on the sequence-number + ack + retransmit envelope for outgoing
    frames — any endpoint understands the envelope on receipt, so
    reliable and fire-and-forget endpoints interoperate.  An
    unacknowledged frame is retransmitted after 5 ms, doubling up to
    250 ms, 12 transmissions in all; an unanswered [Meta_request] is
    retried after 10 ms, doubling up to 500 ms, 8 requests in all; each
    (peer, format) parked queue holds 64 messages, evicting the oldest
    (docs/FAULTS.md).  [metrics] mirrors {!stats} into an Obs
    registry ([conn.*] counters plus the [conn.parked_depth] gauge);
    defaults to [Obs.null].  [ctx] supplies the codec plan cache used by
    this endpoint's [Wire.encode]/[Wire.decode] calls and records their
    [wire.*] metrics; omitted, it is {!Pbio.Ctx.default}
    (docs/CONCURRENCY.md). *)
val create :
  ?endian:Wire.endian ->
  ?reliable:bool ->
  ?metrics:Obs.t ->
  ?ctx:Ctx.t ->
  Netsim.t ->
  Contact.t ->
  endpoint

val contact : endpoint -> Contact.t

(** Install the decoded-value handler (and clear any wire handler). *)
val set_handler : endpoint -> message_handler -> unit

(** Install a raw-bytes handler; it supersedes the decoded-value handler
    until {!set_handler} is called again.  The handler owns decoding and
    decode-failure handling (typically {!Morph.Receiver.deliver_wire}). *)
val set_wire_handler : endpoint -> wire_handler -> unit

(** Called when a reliable peer exhausts its retransmit budget (missed
    acks): the peer is presumed dead.  A later fresh send to that peer
    gives it another chance. *)
val set_on_peer_failure : endpoint -> (Contact.t -> unit) -> unit

(** Send one record, pushing the format meta-data first if this peer has
    not seen it. *)
val send : endpoint -> dst:Contact.t -> Meta.format_meta -> Value.t -> unit

(** Simulate losing soft state (format caches): subsequent unknown Data
    frames exercise the recovery path. *)
val forget_peer_formats : endpoint -> unit

val known_peer_formats : endpoint -> int

(** Messages currently parked awaiting meta-data, across all peers. *)
val parked_messages : endpoint -> int

(** Reliable frames sent but not yet acknowledged. *)
val unacked_frames : endpoint -> int

val stats : endpoint -> stats
