(** The supplier application: consumes orders in the supplier's own format
    and answers each with an order status in the supplier's own format. *)

type t

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

val contact : t -> Transport.Contact.t

(** Received orders, newest first: (po, part, count, price in cents). *)
val orders : t -> (int * string * int * int) list

val receiver : t -> Morph.Receiver.t
