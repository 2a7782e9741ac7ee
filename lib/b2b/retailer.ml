(* The retailer application: emits orders in the retailer's own format and
   consumes order statuses, oblivious to what format the supplier speaks. *)

module Pbio_xml = Xmlkit.Pbio_xml

open Pbio

(* Buckets for the order -> status round trip in simulated seconds: link
   latencies are milliseconds, retransmit storms push into whole seconds. *)
let roundtrip_buckets = [ 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 ]

type t = {
  mode : Broker.mode;
  contact : Transport.Contact.t;
  net : Transport.Netsim.t;
  broker : Transport.Contact.t;
  mutable statuses : (int * string * int) list; (* order_id, status, days; newest first *)
  mutable endpoint : Transport.Conn.endpoint option;
  receiver : Morph.Receiver.t;
  metrics : Obs.t;
  (* order_id -> sim time the order left, for the end-to-end histogram *)
  sent_at : (int, float) Hashtbl.t;
  m_roundtrip : Obs.Histogram.h;
}

let record_status t (v : Value.t) : unit =
  let order_id = Value.to_int (Value.get_field v "order_id") in
  (match Hashtbl.find_opt t.sent_at order_id with
   | Some t0 ->
     Hashtbl.remove t.sent_at order_id;
     Obs.Histogram.observe t.m_roundtrip (Transport.Netsim.now t.net -. t0)
   | None -> ());
  t.statuses <-
    ( order_id,
      Value.to_string_exn (Value.get_field v "status"),
      Value.to_int (Value.get_field v "estimated_days") )
    :: t.statuses

let create ?(reliable = false) ?(metrics = Obs.null) ?ctx (net : Transport.Netsim.t)
    ~(host : string) ~(port : int) ~(broker : Transport.Contact.t) (mode : Broker.mode) : t =
  let contact = Transport.Contact.make host port in
  let receiver =
    Morph.Receiver.create
      ~config:(Morph.Receiver.Config.v ~metrics ?ctx ()) ()
  in
  let t =
    { mode; contact; net; broker; statuses = [];
      endpoint = None; receiver; metrics;
      sent_at = Hashtbl.create 64;
      m_roundtrip =
        Obs.Histogram.make metrics ~unit_:"s" ~buckets:roundtrip_buckets
          "b2b.order_roundtrip_s" }
  in
  Morph.Receiver.register receiver Formats.retail_status (record_status t);
  (match mode with
   | Broker.Xslt_at_broker ->
     Transport.Netsim.add_node net contact (fun ~src:_ payload ->
         match Pbio_xml.decode Formats.retail_status payload with
         | Ok v -> record_status t v
         | Error e -> Logs.warn (fun m -> m "retailer: bad status XML: %a" Err.pp e))
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
           Logs.warn (fun m -> m "retailer: rejected: %s" reason)));
  t

let send_order t (order : Value.t) : unit =
  (if Obs.enabled t.metrics then
     match
       if Value.has_field order "order_id" then
         Some (Value.to_int (Value.get_field order "order_id"))
       else None
     with
     | Some id -> Hashtbl.replace t.sent_at id (Transport.Netsim.now t.net)
     | None -> ());
  match t.mode, t.endpoint with
  | Broker.Xslt_at_broker, _ ->
    Transport.Netsim.send t.net ~src:t.contact ~dst:t.broker
      (Pbio_xml.encode Formats.retail_order order)
  | Broker.Morph_at_receiver, Some ep ->
    Transport.Conn.send ep ~dst:t.broker (Meta.plain Formats.retail_order) order
  | Broker.Morph_at_receiver, None -> assert false

let contact t = t.contact
let statuses t = t.statuses
let receiver t = t.receiver
