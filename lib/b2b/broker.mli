(** The integration broker of Section 4.2, in both of the paper's
    configurations. *)

type mode =
  | Xslt_at_broker
      (** Figure 6, Oracle-AQ style: applications exchange XML; the broker
          parses every message, applies the appropriate XSL stylesheet and
          re-serialises.  All conversion work concentrates at the broker. *)
  | Morph_at_receiver
      (** Figure 7: applications exchange PBIO binary; the broker merely
          associates an Ecode segment with the message's meta-data and
          forwards it.  Conversion happens at each receiver. *)

type counters = {
  mutable routed : int;
  mutable transforms : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

type t

(** [reliable] (morphing mode only) runs the broker's endpoint under the
    connection layer's ack + retransmit protocol.  [metrics] receives the
    broker's [b2b.broker.*] counters (mirroring {!counters}) and, in
    morphing mode, the endpoint's [conn.*] instruments. *)
val create :
  ?reliable:bool ->
  ?metrics:Obs.t ->
  ?ctx:Pbio.Ctx.t ->
  Transport.Netsim.t ->
  host:string ->
  port:int ->
  mode ->
  t
val contact : t -> Transport.Contact.t

(** Register peers.  Orders round-robin across suppliers; statuses return
    to the retailer that placed the order (matched by purchase-order id). *)
val add_retailer : t -> Transport.Contact.t -> unit

val add_supplier : t -> Transport.Contact.t -> unit

(** Shorthand for one retailer and one supplier. *)
val connect : t -> retailer:Transport.Contact.t -> supplier:Transport.Contact.t -> unit

val counters : t -> counters
