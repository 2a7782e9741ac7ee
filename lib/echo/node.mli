(** An ECho process: event channels with channel-based subscription
    (paper, Section 4.1).

    A channel lives at its creator, which tracks membership and forwards
    events from sources to sinks.  Joining sends a ChannelOpenRequest to
    the creator; the creator answers with a ChannelOpenResponse in its
    {e own} protocol version — new nodes always speak the new protocol,
    attaching the Figure 5 retro-transformation as meta-data so that old
    (v1.0) subscribers morph the response on receipt, none the wiser. *)

type version =
  | V1  (** ECho 1.0: three-list ChannelOpenResponse (Figure 4.a) *)
  | V2  (** ECho 2.0: single list with role booleans (Figure 4.b) *)

val pp_version : Format.formatter -> version -> unit

type member = {
  contact : Transport.Contact.t;
  id : int;
  is_source : bool;
  is_sink : bool;
}

type t

(** Create a process on the network; its morphing receiver matches with
    the default thresholds.  [reliable] runs the node's endpoint under the
    connection layer's ack + retransmit protocol; a member whose retransmit
    budget is exhausted (missed acks) is presumed dead and evicted from
    channels this node owns (see docs/FAULTS.md).  [metrics] receives the
    node's [echo.*] counters (including per-channel
    [echo.channel.<name>.delivered]) and is threaded through to the
    endpoint's [conn.*] and the receiver's [receiver.*] instruments.
    [ctx] supplies the codec plan cache for the node's endpoint and
    receiver, and the registry their wire calls and compiles record
    into; omitted, it is {!Pbio.Ctx.default} (docs/CONCURRENCY.md). *)
val create :
  ?reliable:bool ->
  ?metrics:Obs.t ->
  ?ctx:Pbio.Ctx.t ->
  Transport.Netsim.t ->
  host:string ->
  port:int ->
  version ->
  t

val contact : t -> Transport.Contact.t
val version : t -> version

(** Create a channel at this node, with this node's own roles. *)
val create_channel : t -> string -> as_source:bool -> as_sink:bool -> unit

(** Subscribe to a channel owned by [creator]; the response arrives (and is
    morphed if necessary) once the network settles. *)
val join :
  t -> creator:Transport.Contact.t -> string -> as_source:bool -> as_sink:bool -> unit

(** Register a callback for event payloads delivered on a channel. *)
val subscribe_events : t -> string -> (string -> unit) -> unit

(** Publish an event (in this node's own event-format version); routed
    through the channel's creator to all sinks.  A positive [priority] on a
    2.0 publisher is folded into the payload text for 1.0 sinks by the
    attached retro-transformation. *)
val publish : ?priority:int -> t -> string -> string -> unit

(** {1 Introspection} *)

(** Membership as tracked by the creator. *)
val channel_members : t -> string -> member list

(** Membership as learned from the (possibly morphed) response. *)
val known_members : t -> string -> member list

val receiver : t -> Morph.Receiver.t

(** The node's transport endpoint, for fault-injection tests and stats. *)
val endpoint : t -> Transport.Conn.endpoint

type counters = {
  events_received : int;
  events_forwarded : int;
  responses_received : int;
  rejected : int;
  evicted : int;  (** members removed after their retransmit budget ran out *)
}

val counters : t -> counters
