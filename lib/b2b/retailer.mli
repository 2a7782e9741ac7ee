(** The retailer application: emits orders in the retailer's own format and
    consumes order statuses, oblivious to what format the supplier
    speaks. *)

open Pbio

type t

(** [metrics] receives the retailer's [receiver.*]/[conn.*] instruments plus
    the [b2b.order_roundtrip_s] histogram: simulated seconds from the order
    leaving to its (possibly morphed) status arriving. *)
val create :
  ?reliable:bool ->
  ?metrics:Obs.t ->
  ?ctx:Pbio.Ctx.t ->
  Transport.Netsim.t ->
  host:string ->
  port:int ->
  broker:Transport.Contact.t ->
  Broker.mode ->
  t

val send_order : t -> Value.t -> unit
val contact : t -> Transport.Contact.t

(** Received statuses, newest first: (order id, status, estimated days). *)
val statuses : t -> (int * string * int) list

val receiver : t -> Morph.Receiver.t
