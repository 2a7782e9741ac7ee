(* Connection endpoints implementing PBIO's out-of-band meta-data protocol
   over the simulated network.

   A writer pushes a format's meta-data (description plus attached
   retro-transformations) to each peer once, before the first record of
   that format, so every Data frame carries only a small integer id.  A
   receiver that somehow lacks the meta for an id (e.g. it restarted)
   parks the message and sends a Meta_request; the peer replies and parked
   messages flush in order.

   The endpoint survives a lossy network:

   - Parked queues are bounded ([parked_cap] per (peer, format), oldest
     evicted first) so a hostile or partitioned peer cannot grow memory
     without limit.
   - A Meta_request that goes unanswered is retried on a timer with
     exponential backoff; when the retry budget is exhausted the parked
     messages are dropped and counted, never leaked.
   - An endpoint created with [~reliable:true] wraps every outgoing frame
     in a sequence-numbered envelope, acknowledges every envelope it
     receives, retransmits unacknowledged frames with exponential backoff,
     and suppresses duplicate deliveries so the handler never sees a record
     twice.  Exhausting the retransmit budget declares the peer failed and
     invokes [on_peer_failure] (how ECho detects dead sinks).  Any
     endpoint understands the envelope on receipt, so reliable and
     fire-and-forget endpoints interoperate. *)

open Pbio

type message_handler = src:Contact.t -> Meta.format_meta -> Value.t -> unit
type wire_handler = src:Contact.t -> Meta.format_meta -> string -> unit

type peer_key = {
  peer : Contact.t;
  id : int;
}

(* Retry schedule: the first retry waits [initial_s], each later one
   multiplies the wait by [multiplier] up to [max_s]; [max_attempts] counts
   transmissions in total (first send included). *)
type backoff = {
  initial_s : float;
  multiplier : float;
  max_s : float;
  max_attempts : int;
}

(* An unacknowledged reliable frame's schedule. *)
let retransmit =
  { initial_s = 0.005; multiplier = 2.0; max_s = 0.25; max_attempts = 12 }

(* An unanswered Meta_request's schedule. *)
let meta_retry =
  { initial_s = 0.01; multiplier = 2.0; max_s = 0.5; max_attempts = 8 }

(* Messages one (peer, format) parked queue holds. *)
let parked_cap = 64

type stats = {
  mutable records_sent : int;
  mutable records_delivered : int;
  mutable retransmits : int;
  mutable acks_received : int;
  mutable duplicates_suppressed : int;
  mutable meta_requests : int;
  mutable meta_retries : int;
  mutable parked_evicted : int;
  mutable parked_dropped : int;
  mutable peer_failures : int;
}

(* An unacknowledged reliable frame awaiting its ack; keyed by (dst, seq).
   [p_bytes] is the frame's full encoding — including any Traced envelope —
   so a retransmission replays the original trace context byte for byte;
   [p_ctx] parents the retransmission's hop span under the original send. *)
type pending = {
  p_bytes : string;
  p_ctx : Obs.Trace.ctx option;
  mutable p_attempts : int;
}

(* Received-sequence tracking per peer: every seq below [floor] has been
   seen; [above] holds the out-of-order ones beyond it.  The set stays
   small — it is drained into [floor] as gaps fill. *)
type seen = {
  mutable floor : int;
  above : (int, unit) Hashtbl.t;
}

type park = {
  q : (Contact.t * string) Queue.t;
  mutable requested : bool; (* a Meta_request retry loop is running *)
  pk_ctx : Obs.Trace.ctx option;
  (* trace context of the first parked message: meta re-request hops and
     their retries stay linked to the trace that triggered them *)
}

(* Handles into an optional Obs registry, mirroring [stats]; the parked
   queue depth is also exported as a gauge so operators can see a morph
   mismatch backing up behind a lost Meta frame. *)
type metrics = {
  m_sent : Obs.Counter.h;
  m_delivered : Obs.Counter.h;
  m_decode_failures : Obs.Counter.h;
  m_retransmits : Obs.Counter.h;
  m_acks : Obs.Counter.h;
  m_dup_suppressed : Obs.Counter.h;
  m_meta_requests : Obs.Counter.h;
  m_meta_retries : Obs.Counter.h;
  m_parked_evicted : Obs.Counter.h;
  m_parked_dropped : Obs.Counter.h;
  m_peer_failures : Obs.Counter.h;
  m_parked_depth : Obs.Gauge.h;
}

let make_metrics reg =
  {
    m_sent = Obs.Counter.make reg "conn.records_sent";
    m_delivered = Obs.Counter.make reg "conn.records_delivered";
    m_decode_failures = Obs.Counter.make reg "conn.decode_failures";
    m_retransmits = Obs.Counter.make reg "conn.retransmits";
    m_acks = Obs.Counter.make reg "conn.acks_received";
    m_dup_suppressed = Obs.Counter.make reg "conn.duplicates_suppressed";
    m_meta_requests = Obs.Counter.make reg "conn.meta_requests";
    m_meta_retries = Obs.Counter.make reg "conn.meta_retries";
    m_parked_evicted = Obs.Counter.make reg "conn.parked_evicted";
    m_parked_dropped = Obs.Counter.make reg "conn.parked_dropped";
    m_peer_failures = Obs.Counter.make reg "conn.peer_failures";
    m_parked_depth = Obs.Gauge.make reg "conn.parked_depth";
  }

type endpoint = {
  net : Netsim.t;
  m : metrics;
  obs : Obs.t;
  traced : bool; (* [Obs.enabled obs], hoisted out of the hot path *)
  contact : Contact.t;
  registry : Registry.t; (* local (writer-side) formats *)
  peer_formats : (peer_key, Meta.format_meta) Hashtbl.t;
  announced : (peer_key, unit) Hashtbl.t;
  parked : (peer_key, park) Hashtbl.t;
  reliable : bool;
  send_seq : (Contact.t, int ref) Hashtbl.t;
  unacked : (Contact.t * int, pending) Hashtbl.t;
  recv_seen : (Contact.t, seen) Hashtbl.t;
  failed_peers : (Contact.t, unit) Hashtbl.t;
  mutable on_peer_failure : (Contact.t -> unit) option;
  mutable on_message : message_handler;
  mutable on_wire : wire_handler option;
  (* raw-bytes delivery: when set, the endpoint hands the undecoded wire
     message (plus its format meta) to the handler and skips the eager
     [Wire.decode] — the receiver can then run a fused decode->morph plan *)
  endian : Wire.endian;
  pctx : Ctx.t;
  (* capability context for wire codec plans and [wire.*] metrics.  Named
     [pctx] because [ctx] in this file is the trace context threaded
     through [hop_send]. *)
  stats : stats;
}

let default_handler ~src _meta _v =
  ignore src

let contact ep = ep.contact
let stats ep = ep.stats
let set_on_peer_failure ep f = ep.on_peer_failure <- Some f

(* --- sending --------------------------------------------------------------- *)

let raw_send ep ~dst (bytes : string) : unit =
  Netsim.send ep.net ~src:ep.contact ~dst bytes

(* Send and record a "net.hop" trace span covering the frame's simulated
   flight time (sender-side: the Traced envelope carries no timestamps,
   so the hop is timed from the scheduled arrival the simulator reports).
   A frame dropped at send time still records a zero-length hop span
   marked dropped=true, so traces show where a message died. *)
let hop_send ?ctx ?(attrs = []) ep ~dst (bytes : string) : unit =
  if not ep.traced then raw_send ep ~dst bytes
  else begin
    let start_ns = Obs.now ep.obs in
    let sim0 = Netsim.now ep.net in
    let base =
      ("dst", Fmt.str "%a" Contact.pp dst)
      :: ("bytes", string_of_int (String.length bytes))
      :: attrs
    in
    match Netsim.send_arrival ep.net ~src:ep.contact ~dst bytes with
    | Some arrival ->
      Obs.Trace.record ?ctx ~attrs:base ep.obs "net.hop" ~start_ns
        ~end_ns:(start_ns +. ((arrival -. sim0) *. 1e9))
    | None ->
      Obs.Trace.record ?ctx
        ~attrs:(("dropped", "true") :: base)
        ep.obs "net.hop" ~start_ns ~end_ns:start_ns
  end

let peer_failed ep (dst : Contact.t) : unit =
  if not (Hashtbl.mem ep.failed_peers dst) then begin
    Hashtbl.replace ep.failed_peers dst ();
    ep.stats.peer_failures <- ep.stats.peer_failures + 1;
    Obs.Counter.incr ep.m.m_peer_failures;
    (* stop retransmitting everything else bound for the dead peer *)
    let stale =
      Hashtbl.fold
        (fun ((d, _) as k) _ acc -> if Contact.equal d dst then k :: acc else acc)
        ep.unacked []
    in
    List.iter (Hashtbl.remove ep.unacked) stale;
    Logs.warn (fun m ->
        m "%a: peer %a declared failed after %d unacknowledged attempts"
          Contact.pp ep.contact Contact.pp dst retransmit.max_attempts);
    match ep.on_peer_failure with Some f -> f dst | None -> ()
  end

let rec schedule_retransmit ep ~dst ~seq ~delay : unit =
  Netsim.after ep.net delay (fun () ->
      match Hashtbl.find_opt ep.unacked (dst, seq) with
      | None -> () (* acknowledged in the meantime *)
      | Some p ->
        if p.p_attempts >= retransmit.max_attempts then begin
          Hashtbl.remove ep.unacked (dst, seq);
          peer_failed ep dst
        end
        else begin
          p.p_attempts <- p.p_attempts + 1;
          ep.stats.retransmits <- ep.stats.retransmits + 1;
          Obs.Counter.incr ep.m.m_retransmits;
          hop_send ?ctx:p.p_ctx
            ~attrs:[ ("retransmit", string_of_int (p.p_attempts - 1)) ]
            ep ~dst p.p_bytes;
          schedule_retransmit ep ~dst ~seq
            ~delay:(Float.min (delay *. retransmit.multiplier) retransmit.max_s)
        end)

(* Transmit a protocol frame, wrapped in the ambient trace context (when
   a span is open on this endpoint's registry) and under the reliability
   envelope when this endpoint runs reliable.  Reliable composes around
   Traced, so the stored retransmission bytes replay the original trace
   context. *)
let send_frame ep ~dst (f : Framing.frame) : unit =
  let ctx = if ep.traced then Obs.Trace.current ep.obs else None in
  let f =
    match ctx with
    | Some (c : Obs.Trace.ctx) ->
      Framing.Traced { trace_id = c.trace_id; parent_span = c.span_id; frame = f }
    | None -> f
  in
  if not ep.reliable then hop_send ?ctx ep ~dst (Framing.encode f)
  else begin
    (* a fresh send to a failed peer gives it another chance *)
    Hashtbl.remove ep.failed_peers dst;
    let ctr =
      match Hashtbl.find_opt ep.send_seq dst with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.replace ep.send_seq dst r;
        r
    in
    let seq = !ctr in
    incr ctr;
    let bytes = Framing.encode (Framing.Reliable { seq; frame = f }) in
    Hashtbl.replace ep.unacked (dst, seq)
      { p_bytes = bytes; p_ctx = ctx; p_attempts = 1 };
    hop_send ?ctx ep ~dst bytes;
    schedule_retransmit ep ~dst ~seq ~delay:retransmit.initial_s
  end

(* --- duplicate suppression -------------------------------------------------- *)

let already_seen ep (src : Contact.t) (seq : int) : bool =
  match Hashtbl.find_opt ep.recv_seen src with
  | None -> false
  | Some s -> seq < s.floor || Hashtbl.mem s.above seq

let mark_seen ep (src : Contact.t) (seq : int) : unit =
  let s =
    match Hashtbl.find_opt ep.recv_seen src with
    | Some s -> s
    | None ->
      let s = { floor = 0; above = Hashtbl.create 8 } in
      Hashtbl.replace ep.recv_seen src s;
      s
  in
  if seq = s.floor then begin
    s.floor <- s.floor + 1;
    while Hashtbl.mem s.above s.floor do
      Hashtbl.remove s.above s.floor;
      s.floor <- s.floor + 1
    done
  end
  else if seq > s.floor then Hashtbl.replace s.above seq ()

(* --- meta-data recovery ----------------------------------------------------- *)

let parked_messages ep =
  Hashtbl.fold (fun _ p acc -> acc + Queue.length p.q) ep.parked 0

(* The depth gauge is maintained as up/down deltas ([Obs.Gauge.add])
   rather than recomputed with [set]: delta gauges sum across domain
   shards at merge time, so endpoints split over domains report the
   true total parked depth instead of one shard's last write. *)
let parked_delta ep d =
  if d <> 0 then Obs.Gauge.add ep.m.m_parked_depth (float_of_int d)

let send_meta_request ?ctx ep (key : peer_key) : unit =
  ep.stats.meta_requests <- ep.stats.meta_requests + 1;
  Obs.Counter.incr ep.m.m_meta_requests;
  let ctx =
    match ctx with
    | Some _ as c -> c
    | None -> if ep.traced then Obs.Trace.current ep.obs else None
  in
  let f = Framing.Meta_request { format_id = key.id } in
  let f =
    match ctx with
    | Some (c : Obs.Trace.ctx) ->
      Framing.Traced { trace_id = c.trace_id; parent_span = c.span_id; frame = f }
    | None -> f
  in
  (* unacknowledged on purpose: the timer loop below is the retry
     mechanism, and it also covers the reply being lost, which an acked
     request would not *)
  hop_send ?ctx ~attrs:[ ("kind", "meta_request") ] ep ~dst:key.peer
    (Framing.encode f)

let rec schedule_meta_retry ep (key : peer_key) ~attempt ~delay : unit =
  Netsim.after ep.net delay (fun () ->
      match Hashtbl.find_opt ep.parked key with
      | None -> () (* the meta-data arrived and the queue flushed *)
      | Some p ->
        if attempt >= meta_retry.max_attempts then begin
          ep.stats.parked_dropped <- ep.stats.parked_dropped + Queue.length p.q;
          Obs.Counter.add ep.m.m_parked_dropped (Queue.length p.q);
          parked_delta ep (-(Queue.length p.q));
          Hashtbl.remove ep.parked key;
          Logs.warn (fun m ->
              m "%a: giving up on meta-data for format %d from %a after %d \
                 requests; dropping %d parked message(s)"
                Contact.pp ep.contact key.id Contact.pp key.peer attempt
                (Queue.length p.q))
        end
        else begin
          ep.stats.meta_retries <- ep.stats.meta_retries + 1;
          Obs.Counter.incr ep.m.m_meta_retries;
          send_meta_request ?ctx:p.pk_ctx ep key;
          schedule_meta_retry ep key ~attempt:(attempt + 1)
            ~delay:(Float.min (delay *. meta_retry.multiplier) meta_retry.max_s)
        end)

let park_message ep (key : peer_key) ~src (message : string) : unit =
  let p =
    match Hashtbl.find_opt ep.parked key with
    | Some p -> p
    | None ->
      let p =
        {
          q = Queue.create ();
          requested = false;
          pk_ctx = (if ep.traced then Obs.Trace.current ep.obs else None);
        }
      in
      Hashtbl.replace ep.parked key p;
      p
  in
  if not p.requested then begin
    p.requested <- true;
    send_meta_request ?ctx:p.pk_ctx ep key;
    schedule_meta_retry ep key ~attempt:1 ~delay:meta_retry.initial_s
  end;
  if Queue.length p.q >= parked_cap then begin
    ignore (Queue.pop p.q); (* oldest-first eviction *)
    ep.stats.parked_evicted <- ep.stats.parked_evicted + 1;
    Obs.Counter.incr ep.m.m_parked_evicted;
    parked_delta ep (-1)
  end;
  Queue.add (src, message) p.q;
  parked_delta ep 1

(* --- receiving -------------------------------------------------------------- *)

let deliver ep ~src (fm : Meta.format_meta) (message : string) : unit =
  match ep.on_wire with
  | Some f ->
    (* raw path: decoding (and its failure handling) is the handler's job *)
    ep.stats.records_delivered <- ep.stats.records_delivered + 1;
    Obs.Counter.incr ep.m.m_delivered;
    f ~src fm message
  | None ->
    (match Wire.decode ~ctx:ep.pctx fm.Meta.body message with
     | Ok v ->
       ep.stats.records_delivered <- ep.stats.records_delivered + 1;
       Obs.Counter.incr ep.m.m_delivered;
       ep.on_message ~src fm v
     | Error e ->
       (* a corrupted record must not take the endpoint down *)
       Obs.Counter.incr ep.m.m_decode_failures;
       Logs.warn (fun m ->
           m "%a: dropping undecodable message from %a: %a" Contact.pp ep.contact
             Contact.pp src Err.pp e))

let rec handle_inner ep ~src (frame : Framing.frame) : unit =
  match frame with
  | Framing.Meta { format_id; meta } ->
    (match Meta.decode meta with
     | Error e ->
       Logs.warn (fun m ->
           m "%a: bad meta-data from %a: %a" Contact.pp ep.contact Contact.pp src
             Err.pp e)
     | Ok fm ->
       let key = { peer = src; id = format_id } in
       Hashtbl.replace ep.peer_formats key fm;
       (* flush anything parked waiting for this meta *)
       (match Hashtbl.find_opt ep.parked key with
        | None -> ()
        | Some p ->
          Hashtbl.remove ep.parked key;
          parked_delta ep (-(Queue.length p.q));
          Queue.iter (fun (src, message) -> deliver ep ~src fm message) p.q))
  | Framing.Data { format_id; message } ->
    let key = { peer = src; id = format_id } in
    (match Hashtbl.find_opt ep.peer_formats key with
     | Some fm -> deliver ep ~src fm message
     | None -> park_message ep key ~src message)
  | Framing.Meta_request { format_id } ->
    (match Registry.find ep.registry format_id with
     | None ->
       Logs.warn (fun m ->
           m "%a: meta request for unknown format %d from %a"
             Contact.pp ep.contact format_id Contact.pp src)
     | Some f ->
       send_frame ep ~dst:src
         (Framing.Meta { format_id; meta = Meta.encode f.Registry.meta }))
  | Framing.Ack { seq } ->
    ep.stats.acks_received <- ep.stats.acks_received + 1;
    Obs.Counter.incr ep.m.m_acks;
    Hashtbl.remove ep.unacked (src, seq)
  | Framing.Reliable { seq; frame } ->
    (* always acknowledge — the previous ack may itself have been lost;
       the ack hop joins the inner frame's trace when it carries one *)
    let ctx =
      if not ep.traced then None
      else
        match frame with
        | Framing.Traced { trace_id; parent_span; _ } ->
          Some { Obs.Trace.trace_id; span_id = parent_span }
        | _ -> None
    in
    hop_send ?ctx ~attrs:[ ("kind", "ack") ] ep ~dst:src
      (Framing.encode (Framing.Ack { seq }));
    if already_seen ep src seq then begin
      ep.stats.duplicates_suppressed <- ep.stats.duplicates_suppressed + 1;
      Obs.Counter.incr ep.m.m_dup_suppressed
    end
    else begin
      mark_seen ep src seq;
      handle_inner ep ~src frame
    end
  | Framing.Traced { trace_id; parent_span; frame } ->
    (* continue the sender's trace: everything this delivery does —
       decode, morph planning, conversion, application handling, even
       replies sent from inside the handler — parents under the
       sender's span *)
    Obs.Trace.with_span
      ~ctx:{ Obs.Trace.trace_id; span_id = parent_span }
      ep.obs "conn.deliver"
      (fun () -> handle_inner ep ~src frame)
  | Framing.Described { tenant; _ } ->
    (* gateway envelopes are terminated by a Gateway node, not a plain
       endpoint: a Described frame here is a routing mistake, dropped
       rather than mis-delivered without its admission context *)
    Logs.warn (fun m ->
        m "conn: dropping described frame for tenant %d at a plain endpoint \
           (no gateway here)" tenant)

let handle_frame ep ~src (payload : string) : unit =
  match Framing.decode payload with
  | Error e ->
    Logs.warn (fun m ->
        m "%a: dropping malformed frame from %a: %a" Contact.pp ep.contact
          Contact.pp src Err.pp e)
  | Ok frame -> handle_inner ep ~src frame

(* --- construction ----------------------------------------------------------- *)

let create ?(endian = Wire.Little) ?(reliable = false) ?(metrics = Obs.null)
    ?(ctx = Ctx.default) (net : Netsim.t) (contact : Contact.t) : endpoint =
  let ep =
    {
      net;
      m = make_metrics metrics;
      obs = metrics;
      traced = Obs.enabled metrics;
      contact;
      registry = Registry.create ();
      peer_formats = Hashtbl.create 16;
      announced = Hashtbl.create 16;
      parked = Hashtbl.create 4;
      reliable;
      send_seq = Hashtbl.create 8;
      unacked = Hashtbl.create 16;
      recv_seen = Hashtbl.create 8;
      failed_peers = Hashtbl.create 4;
      on_peer_failure = None;
      on_message = default_handler;
      on_wire = None;
      endian;
      pctx = ctx;
      stats =
        {
          records_sent = 0;
          records_delivered = 0;
          retransmits = 0;
          acks_received = 0;
          duplicates_suppressed = 0;
          meta_requests = 0;
          meta_retries = 0;
          parked_evicted = 0;
          parked_dropped = 0;
          peer_failures = 0;
        };
    }
  in
  Netsim.add_node net contact (fun ~src payload -> handle_frame ep ~src payload);
  ep

let set_handler ep f =
  ep.on_message <- f;
  ep.on_wire <- None

let set_wire_handler ep f = ep.on_wire <- Some f

(* Register a format for sending; idempotent. *)
let register ep (meta : Meta.format_meta) : Registry.fmt =
  Registry.register ep.registry meta

let send_plain ep ~(dst : Contact.t) (meta : Meta.format_meta) (v : Value.t) :
  unit =
  let f = register ep meta in
  let key = { peer = dst; id = f.Registry.id } in
  ep.stats.records_sent <- ep.stats.records_sent + 1;
  Obs.Counter.incr ep.m.m_sent;
  if not (Hashtbl.mem ep.announced key) then begin
    Hashtbl.replace ep.announced key ();
    send_frame ep ~dst
      (Framing.Meta { format_id = f.Registry.id; meta = Meta.encode meta })
  end;
  let message =
    Obs.Trace.with_span ep.obs "wire.encode" (fun () ->
        Wire.encode ~ctx:ep.pctx ~endian:ep.endian ~format_id:f.Registry.id
          meta.Meta.body v)
  in
  send_frame ep ~dst (Framing.Data { format_id = f.Registry.id; message })

let send ep ~(dst : Contact.t) (meta : Meta.format_meta) (v : Value.t) : unit =
  if not ep.traced then send_plain ep ~dst meta v
  else
    (* when called inside an open span (e.g. a handler continuing a
       received context) this nests there and the whole send inherits
       the caller's trace id; at top level it roots a fresh trace *)
    Obs.Trace.with_span
      ~attrs:
        [
          ("dst", Fmt.str "%a" Contact.pp dst);
          ("format", meta.Meta.body.Ptype.rname);
        ]
      ep.obs "conn.send"
      (fun () -> send_plain ep ~dst meta v)

(* Simulate a receiver losing its soft state (format caches): subsequent
   unknown Data frames trigger the Meta_request recovery path. *)
let forget_peer_formats ep = Hashtbl.reset ep.peer_formats

let known_peer_formats ep = Hashtbl.length ep.peer_formats

let unacked_frames ep = Hashtbl.length ep.unacked
