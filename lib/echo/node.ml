(* An ECho process: event channels with channel-based subscription
   (paper, Section 4.1).

   A channel lives at its creator, which tracks membership and forwards
   events from sources to sinks.  Joining sends a ChannelOpenRequest to the
   creator; the creator answers with a ChannelOpenResponse in its *own*
   protocol version — new nodes always speak the new protocol, attaching the
   Figure 5 retro-transformation as meta-data so that old (v1.0) subscribers
   morph the response on receipt, none the wiser. *)

open Pbio

type version =
  | V1
  | V2

let pp_version ppf = function
  | V1 -> Fmt.string ppf "ECho-1.0"
  | V2 -> Fmt.string ppf "ECho-2.0"

type member = {
  contact : Transport.Contact.t;
  id : int;
  is_source : bool;
  is_sink : bool;
}

type channel_state = {
  name : string;
  mutable members : member list; (* join order *)
  mutable next_id : int;
}

type subscription = {
  creator : Transport.Contact.t;
  mutable known_members : member list;
}

type t = {
  version : version;
  endpoint : Transport.Conn.endpoint;
  receiver : Morph.Receiver.t;
  metrics : Obs.t;
  m_received : Obs.Counter.h;
  m_forwarded : Obs.Counter.h;
  m_responses : Obs.Counter.h;
  m_rejected : Obs.Counter.h;
  m_evicted : Obs.Counter.h;
  channels : (string, channel_state) Hashtbl.t;
  subs : (string, subscription) Hashtbl.t;
  event_handlers : (string, (string -> unit) list ref) Hashtbl.t;
  mutable seq : int;
  mutable events_received : int;
  mutable events_forwarded : int;
  mutable responses_received : int;
  mutable rejected : int;
  mutable evicted : int;
}

let contact t = Transport.Conn.contact t.endpoint

let version t = t.version

(* --- outgoing messages ----------------------------------------------------- *)

let request_meta = Meta.plain Wire_formats.channel_open_request

let event_meta = function
  | V1 -> Wire_formats.event_v1_meta
  | V2 -> Wire_formats.event_v2_meta

let response_meta t =
  match t.version with
  | V1 -> Wire_formats.response_v1_meta
  | V2 -> Wire_formats.response_v2_meta

let member_value_v2 (m : member) : Value.t =
  Wire_formats.member_v2_value ~host:m.contact.Transport.Contact.host
    ~port:m.contact.Transport.Contact.port ~id:m.id ~is_source:m.is_source
    ~is_sink:m.is_sink

let response_value t (ch : channel_state) : Value.t =
  match t.version with
  | V2 ->
    Value.record
      [
        ("channel", Value.String ch.name);
        ("member_count", Value.Int (List.length ch.members));
        ("member_list", Value.array_of_list (List.map member_value_v2 ch.members));
      ]
  | V1 ->
    let entry (m : member) =
      Wire_formats.member_v1_value ~host:m.contact.Transport.Contact.host
        ~port:m.contact.Transport.Contact.port ~id:m.id
    in
    let srcs = List.filter (fun m -> m.is_source) ch.members in
    let sinks = List.filter (fun m -> m.is_sink) ch.members in
    Value.record
      [
        ("channel", Value.String ch.name);
        ("member_count", Value.Int (List.length ch.members));
        ("member_list", Value.array_of_list (List.map entry ch.members));
        ("src_count", Value.Int (List.length srcs));
        ("src_list", Value.array_of_list (List.map entry srcs));
        ("sink_count", Value.Int (List.length sinks));
        ("sink_list", Value.array_of_list (List.map entry sinks));
      ]

(* --- incoming message handlers --------------------------------------------- *)

let member_of_value (v : Value.t) ~(is_source : bool) ~(is_sink : bool) : member =
  let info = Value.get_field v "info" in
  {
    contact =
      Transport.Contact.make
        (Value.to_string_exn (Value.get_field info "host"))
        (Value.to_int (Value.get_field info "port"));
    id = Value.to_int (Value.get_field v "ID");
    is_source;
    is_sink;
  }

let handle_request t (v : Value.t) : unit =
  let channel = Value.to_string_exn (Value.get_field v "channel") in
  match Hashtbl.find_opt t.channels channel with
  | None ->
    Logs.debug (fun m -> m "%a: open request for unknown channel %S"
                   Transport.Contact.pp (contact t) channel)
  | Some ch ->
    let info = Value.get_field v "requester" in
    let requester =
      Transport.Contact.make
        (Value.to_string_exn (Value.get_field info "host"))
        (Value.to_int (Value.get_field info "port"))
    in
    let m =
      {
        contact = requester;
        id = ch.next_id;
        is_source = Value.to_bool (Value.get_field v "as_source");
        is_sink = Value.to_bool (Value.get_field v "as_sink");
      }
    in
    ch.next_id <- ch.next_id + 1;
    (* idempotent re-join: replace any previous entry for this contact *)
    ch.members <-
      List.filter (fun m' -> not (Transport.Contact.equal m'.contact requester)) ch.members
      @ [ m ];
    Transport.Conn.send t.endpoint ~dst:requester (response_meta t) (response_value t ch)

let members_of_response_v1 (v : Value.t) : member list =
  let member_list = Value.get_field v "member_list" in
  let in_list field m =
    let l = Value.get_field v field in
    let rec go i =
      if i >= Value.array_len l then false
      else if Value.to_int (Value.get_field (Value.array_get l i) "ID")
              = Value.to_int (Value.get_field m "ID")
      then true
      else go (i + 1)
    in
    go 0
  in
  List.init (Value.array_len member_list) (fun i ->
      let mv = Value.array_get member_list i in
      member_of_value mv ~is_source:(in_list "src_list" mv) ~is_sink:(in_list "sink_list" mv))

let members_of_response_v2 (v : Value.t) : member list =
  let member_list = Value.get_field v "member_list" in
  List.init (Value.array_len member_list) (fun i ->
      let mv = Value.array_get member_list i in
      member_of_value mv
        ~is_source:(Value.to_bool (Value.get_field mv "is_source"))
        ~is_sink:(Value.to_bool (Value.get_field mv "is_sink")))

let handle_response t (v : Value.t) : unit =
  let channel = Value.to_string_exn (Value.get_field v "channel") in
  t.responses_received <- t.responses_received + 1;
  Obs.Counter.incr t.m_responses;
  match Hashtbl.find_opt t.subs channel with
  | None ->
    Logs.debug (fun m -> m "%a: unexpected response for %S"
                   Transport.Contact.pp (contact t) channel)
  | Some sub ->
    sub.known_members <-
      (match t.version with
       | V1 -> members_of_response_v1 v
       | V2 -> members_of_response_v2 v)

let handle_event t (v : Value.t) : unit =
  let channel = Value.to_string_exn (Value.get_field v "channel") in
  (* tag the delivery span (opened around Receiver.deliver) with the
     channel so traces can be filtered per channel *)
  Obs.Trace.add_attr t.metrics "channel" channel;
  let payload = Value.to_string_exn (Value.get_field v "payload") in
  let origin = Value.get_field v "origin" in
  let origin_contact =
    Transport.Contact.make
      (Value.to_string_exn (Value.get_field origin "host"))
      (Value.to_int (Value.get_field origin "port"))
  in
  (* Creator: forward to sink members (not back to the origin). *)
  (match Hashtbl.find_opt t.channels channel with
   | Some ch ->
     List.iter
       (fun m ->
          if m.is_sink && not (Transport.Contact.equal m.contact origin_contact) then begin
            t.events_forwarded <- t.events_forwarded + 1;
            Obs.Counter.incr t.m_forwarded;
            (* the forwarded value is in this node's own event format: a
               newer creator re-ships the v2 form (with its transformation),
               an older one the morphed v1 form it received *)
            Transport.Conn.send t.endpoint ~dst:m.contact (event_meta t.version) v
          end)
       ch.members
   | None -> ());
  (* Local sink: deliver to subscribers. *)
  match Hashtbl.find_opt t.event_handlers channel with
  | Some handlers ->
    t.events_received <- t.events_received + 1;
    Obs.Counter.incr t.m_received;
    (* per-channel delivery count; make is get-or-create, so the handle is
       shared across events of the same channel *)
    Obs.Counter.incr
      (Obs.Counter.make t.metrics ("echo.channel." ^ channel ^ ".delivered"));
    List.iter (fun f -> f payload) !handlers
  | None -> ()

(* --- construction ----------------------------------------------------------- *)

(* A member whose reliable endpoint gave up on it (retransmit budget
   exhausted — the missed-ack heartbeat) is presumed dead and evicted from
   every channel this node owns, so the creator stops burning forwarding
   and retransmission work on a sink that will never ack. *)
let evict_member t (dead : Transport.Contact.t) : unit =
  Hashtbl.iter
    (fun _ ch ->
       let before = List.length ch.members in
       ch.members <-
         List.filter
           (fun m -> not (Transport.Contact.equal m.contact dead))
           ch.members;
       let gone = before - List.length ch.members in
       if gone > 0 then begin
         t.evicted <- t.evicted + gone;
         Obs.Counter.add t.m_evicted gone;
         Logs.warn (fun m ->
             m "%a: evicting unresponsive member %a from channel %S"
               Transport.Contact.pp (contact t) Transport.Contact.pp dead
               ch.name)
       end)
    t.channels

let create ?(reliable = false) ?(metrics = Obs.null) ?ctx (net : Transport.Netsim.t)
    ~(host : string) ~(port : int) (version : version) : t =
  let contact = Transport.Contact.make host port in
  let endpoint = Transport.Conn.create ~reliable ~metrics ?ctx net contact in
  let receiver =
    Morph.Receiver.create
      ~config:(Morph.Receiver.Config.v ~metrics ?ctx ())
      ()
  in
  let t =
    {
      version;
      endpoint;
      receiver;
      metrics;
      m_received = Obs.Counter.make metrics "echo.events_received";
      m_forwarded = Obs.Counter.make metrics "echo.events_forwarded";
      m_responses = Obs.Counter.make metrics "echo.responses_received";
      m_rejected = Obs.Counter.make metrics "echo.rejected";
      m_evicted = Obs.Counter.make metrics "echo.evicted";
      channels = Hashtbl.create 8;
      subs = Hashtbl.create 8;
      event_handlers = Hashtbl.create 8;
      seq = 0;
      events_received = 0;
      events_forwarded = 0;
      responses_received = 0;
      rejected = 0;
      evicted = 0;
    }
  in
  Transport.Conn.set_on_peer_failure endpoint (fun dead -> evict_member t dead);
  Morph.Receiver.register receiver Wire_formats.channel_open_request (handle_request t);
  Morph.Receiver.register receiver
    (match version with
     | V1 -> Wire_formats.channel_open_response_v1
     | V2 -> Wire_formats.channel_open_response_v2)
    (handle_response t);
  Morph.Receiver.register receiver
    (match version with
     | V1 -> Wire_formats.event_msg
     | V2 -> Wire_formats.event_msg_v2)
    (handle_event t);
  (* raw-bytes delivery: the receiver decodes, running the fused
     decode->morph plan when the cached pipeline allows it *)
  Transport.Conn.set_wire_handler endpoint (fun ~src meta message ->
      match
        Obs.with_span metrics "echo.deliver" (fun () ->
            Morph.Receiver.deliver_wire receiver meta message)
      with
      | Morph.Receiver.Delivered _ | Morph.Receiver.Defaulted -> ()
      | Morph.Receiver.Rejected reason ->
        t.rejected <- t.rejected + 1;
        Obs.Counter.incr t.m_rejected;
        Logs.warn (fun m ->
            m "%a: rejected message from %a: %s" Transport.Contact.pp contact
              Transport.Contact.pp src reason));
  t

(* --- public operations ------------------------------------------------------- *)

let create_channel t (name : string) ~(as_source : bool) ~(as_sink : bool) : unit =
  if Hashtbl.mem t.channels name then invalid_arg ("channel exists: " ^ name);
  let self = { contact = contact t; id = 0; is_source = as_source; is_sink = as_sink } in
  Hashtbl.replace t.channels name { name; members = [ self ]; next_id = 1 }

let join t ~(creator : Transport.Contact.t) (name : string) ~(as_source : bool)
    ~(as_sink : bool) : unit =
  Hashtbl.replace t.subs name { creator; known_members = [] };
  let self = contact t in
  Transport.Conn.send t.endpoint ~dst:creator request_meta
    (Wire_formats.request_value ~channel:name ~host:self.Transport.Contact.host
       ~port:self.Transport.Contact.port ~id:0 ~as_source ~as_sink)

let subscribe_events t (name : string) (f : string -> unit) : unit =
  let handlers =
    match Hashtbl.find_opt t.event_handlers name with
    | Some hs -> hs
    | None ->
      let hs = ref [] in
      Hashtbl.replace t.event_handlers name hs;
      hs
  in
  handlers := !handlers @ [ f ]

let publish ?(priority = 0) t (name : string) (payload : string) : unit =
  t.seq <- t.seq + 1;
  let self = contact t in
  let origin = (self.Transport.Contact.host, self.Transport.Contact.port) in
  let ev =
    match t.version with
    | V1 -> Wire_formats.event_value ~channel:name ~seq:t.seq ~origin ~payload
    | V2 ->
      Wire_formats.event_v2_value ~channel:name ~seq:t.seq ~origin ~priority ~payload
  in
  if Hashtbl.mem t.channels name then
    (* we are the creator: forward directly *)
    handle_event t ev
  else
    match Hashtbl.find_opt t.subs name with
    | Some sub ->
      Transport.Conn.send t.endpoint ~dst:sub.creator (event_meta t.version) ev
    | None -> invalid_arg ("publish: not a member of channel " ^ name)

(* --- introspection ------------------------------------------------------------ *)

let channel_members t (name : string) : member list =
  match Hashtbl.find_opt t.channels name with
  | Some ch -> ch.members
  | None -> []

let known_members t (name : string) : member list =
  match Hashtbl.find_opt t.subs name with
  | Some s -> s.known_members
  | None -> []

let receiver t = t.receiver
let endpoint t = t.endpoint

type counters = {
  events_received : int;
  events_forwarded : int;
  responses_received : int;
  rejected : int;
  evicted : int;
}

let counters (t : t) : counters =
  {
    events_received = t.events_received;
    events_forwarded = t.events_forwarded;
    responses_received = t.responses_received;
    rejected = t.rejected;
    evicted = t.evicted;
  }
