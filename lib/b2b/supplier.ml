(* The supplier application: consumes orders in the supplier's own format
   and answers with order statuses in the supplier's own format. *)

module Pbio_xml = Xmlkit.Pbio_xml

open Pbio

type t = {
  mode : Broker.mode;
  contact : Transport.Contact.t;
  net : Transport.Netsim.t;
  broker : Transport.Contact.t;
  mutable orders : (int * string * int * int) list; (* po, part, count, cents *)
  mutable endpoint : Transport.Conn.endpoint option;
  receiver : Morph.Receiver.t;
}

let reply_status t ~(po : int) (i : int) : unit =
  let status = Formats.gen_status_for ~po i in
  match t.mode, t.endpoint with
  | Broker.Xslt_at_broker, _ ->
    Transport.Netsim.send t.net ~src:t.contact ~dst:t.broker
      (Pbio_xml.encode Formats.supplier_status status)
  | Broker.Morph_at_receiver, Some ep ->
    Transport.Conn.send ep ~dst:t.broker (Meta.plain Formats.supplier_status) status
  | Broker.Morph_at_receiver, None -> assert false

let handle_order t (v : Value.t) : unit =
  let po = Value.to_int (Value.get_field v "po") in
  t.orders <-
    ( po,
      Value.to_string_exn (Value.get_field v "part"),
      Value.to_int (Value.get_field v "count"),
      Value.to_int (Value.get_field v "price_cents") )
    :: t.orders;
  reply_status t ~po (List.length t.orders)

let create ?(reliable = false) ?(metrics = Obs.null) ?ctx (net : Transport.Netsim.t)
    ~(host : string) ~(port : int) ~(broker : Transport.Contact.t) (mode : Broker.mode) : t =
  let contact = Transport.Contact.make host port in
  let receiver =
    Morph.Receiver.create
      ~config:(Morph.Receiver.Config.v ~metrics ?ctx ()) ()
  in
  let t =
    { mode; contact; net; broker; orders = []; endpoint = None; receiver }
  in
  Morph.Receiver.register receiver Formats.supplier_order (handle_order t);
  (match mode with
   | Broker.Xslt_at_broker ->
     Transport.Netsim.add_node net contact (fun ~src:_ payload ->
         match Pbio_xml.decode Formats.supplier_order payload with
         | Ok v -> handle_order t v
         | Error e -> Logs.warn (fun m -> m "supplier: bad order XML: %a" Err.pp e))
   | Broker.Morph_at_receiver ->
     let ep = Transport.Conn.create ~reliable ~metrics ?ctx net contact in
     t.endpoint <- Some ep;
     Transport.Conn.set_wire_handler ep (fun ~src:_ meta message ->
         match
           Obs.with_span metrics "b2b.deliver" (fun () ->
               Morph.Receiver.deliver_wire receiver meta message)
         with
         | Morph.Receiver.Delivered _ | Morph.Receiver.Defaulted -> ()
         | Morph.Receiver.Rejected reason ->
           Logs.warn (fun m -> m "supplier: rejected: %s" reason)));
  t

let contact t = t.contact
let orders t = t.orders
let receiver t = t.receiver
