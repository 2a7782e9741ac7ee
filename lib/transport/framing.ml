(* Frames carried by the simulated network.

   A frame is one of:
     - Meta: out-of-band format meta-data for a sender-local format id —
       pushed once per (peer, format) before the first Data frame;
     - Data: a PBIO-encoded record (complete wire message, header included);
     - Meta_request: ask a peer to (re)send meta-data for an id, used on
       recovery paths (e.g. a receiver restarted and lost its format cache);
     - Ack: acknowledge receipt of a sequence-numbered frame;
     - Reliable: a sequence-numbered envelope around a Meta/Data/Meta_request
       frame (possibly Traced), used by endpoints running the ack +
       retransmit protocol over a lossy network;
     - Traced: a trace-context envelope around a Meta/Data/Meta_request
       frame, carrying the sender's trace id and open span so the receiver
       can continue the distributed trace (see Obs.Trace);
     - Described: the gateway's self-describing envelope around a
       Meta/Data/Meta_request frame — tenant id, format fingerprint and a
       delivery deadline, so a multi-tenant gateway can route, admit and
       shed before decoding the body (see docs/GATEWAY.md).

   Layout: 1-byte kind, 4-byte LE id field (format id, or sequence number
   for Ack/Reliable; 0 for Traced; tenant id for Described), 4-byte LE
   body length, body.  A Reliable body is the complete encoding of the
   inner frame; a Traced body is 8-byte LE trace id, 8-byte LE parent
   span id, then the complete encoding of the inner frame; a Described
   body is 8-byte LE format fingerprint, 8-byte LE deadline (ns of
   simulated time; 0 = none), then the complete encoding of the inner
   frame.  Nesting Reliable or Ack inside an envelope is a protocol
   error, as is Traced inside Traced or Described inside Described; the
   legal compositions are Reliable around Traced or Described, and
   Traced around Described (reliability is a hop property, tracing an
   end-to-end one, and the description belongs to the innermost
   payload). *)

type frame =
  | Meta of { format_id : int; meta : string }
  | Data of { format_id : int; message : string }
  | Meta_request of { format_id : int }
  | Ack of { seq : int }
  | Reliable of { seq : int; frame : frame }
  | Traced of { trace_id : int; parent_span : int; frame : frame }
  | Described of { tenant : int; fingerprint : int; deadline_ns : int; frame : frame }

exception Frame_error of string

let frame_error fmt = Fmt.kstr (fun s -> raise (Frame_error s)) fmt

let kind_byte = function
  | Meta _ -> '\x01'
  | Data _ -> '\x02'
  | Meta_request _ -> '\x03'
  | Ack _ -> '\x04'
  | Reliable _ -> '\x05'
  | Traced _ -> '\x06'
  | Described _ -> '\x07'

let add_int64_le buf n = Buffer.add_int64_le buf (Int64.of_int n)

let rec encode (f : frame) : string =
  let id_field, body =
    match f with
    | Meta { format_id; meta } -> (format_id, meta)
    | Data { format_id; message } -> (format_id, message)
    | Meta_request { format_id } -> (format_id, "")
    | Ack { seq } -> (seq, "")
    | Reliable { seq; frame } ->
      (match frame with
       | Ack _ | Reliable _ ->
         frame_error "cannot nest an %s frame inside a reliable envelope"
           (match frame with Ack _ -> "ack" | _ -> "reliable")
       | _ -> (seq, encode frame))
    | Traced { trace_id; parent_span; frame } ->
      (match frame with
       | Ack _ | Reliable _ | Traced _ ->
         frame_error "cannot nest a %s frame inside a traced envelope"
           (match frame with
            | Ack _ -> "ack"
            | Reliable _ -> "reliable"
            | _ -> "traced")
       | _ ->
         if trace_id < 0 || parent_span < 0 then
           frame_error "negative trace context (%d, %d)" trace_id parent_span;
         let b = Buffer.create 32 in
         add_int64_le b trace_id;
         add_int64_le b parent_span;
         Buffer.add_string b (encode frame);
         (0, Buffer.contents b))
    | Described { tenant; fingerprint; deadline_ns; frame } ->
      (match frame with
       | Ack _ | Reliable _ | Traced _ | Described _ ->
         frame_error "cannot nest a %s frame inside a described envelope"
           (match frame with
            | Ack _ -> "ack"
            | Reliable _ -> "reliable"
            | Traced _ -> "traced"
            | _ -> "described")
       | _ ->
         if tenant < 0 then frame_error "negative tenant id %d" tenant;
         if fingerprint < 0 || deadline_ns < 0 then
           frame_error "negative description (%d, %d)" fingerprint deadline_ns;
         let b = Buffer.create 32 in
         add_int64_le b fingerprint;
         add_int64_le b deadline_ns;
         Buffer.add_string b (encode frame);
         (tenant, Buffer.contents b))
  in
  let buf = Buffer.create (9 + String.length body) in
  Buffer.add_char buf (kind_byte f);
  Buffer.add_int32_le buf (Int32.of_int id_field);
  Buffer.add_int32_le buf (Int32.of_int (String.length body));
  Buffer.add_string buf body;
  Buffer.contents buf

(* The kind byte of the [size]-byte frame enveloped at [off] of [s], or
   ['\x00'], no frame's kind, when no whole frame header is there to read
   it from; the byte alone decides the inner frame's constructor.
   Envelopes check it before decoding the inner frame, so legal nesting
   recurses at most three levels and a hostile stack of envelopes fails
   at its second level instead of recursing through every level. *)
let inner_kind s off size = if size >= 9 then s.[off] else '\x00'

(* The frame occupying the [size] bytes at [off] of [s].  An envelope's
   inner frame is parsed where it lies in [s]: only a leaf's body is
   copied out. *)
let rec decode_exn (s : string) off size : frame =
  if size < 9 then frame_error "short frame (%d bytes)" size;
  let id_field = Int32.to_int (String.get_int32_le s (off + 1)) in
  let len = Int32.to_int (String.get_int32_le s (off + 5)) in
  if len < 0 || 9 + len <> size then frame_error "frame length %d does not match size %d" len size;
  let body = off + 9 in
  match s.[off] with
  | '\x01' -> Meta { format_id = id_field; meta = String.sub s body len }
  | '\x02' -> Data { format_id = id_field; message = String.sub s body len }
  | '\x03' -> Meta_request { format_id = id_field }
  | '\x04' ->
    if len <> 0 then frame_error "ack frame with a %d-byte body" len;
    if id_field < 0 then frame_error "negative ack sequence number %d" id_field;
    Ack { seq = id_field }
  | '\x05' ->
    if id_field < 0 then frame_error "negative sequence number %d" id_field;
    (match inner_kind s body len with
     | '\x04' | '\x05' -> frame_error "nested reliable envelope"
     | _ -> Reliable { seq = id_field; frame = decode_exn s body len })
  | '\x06' ->
    if len < 16 then frame_error "traced frame with a %d-byte body" len;
    let trace_id = Int64.to_int (String.get_int64_le s body) in
    let parent_span = Int64.to_int (String.get_int64_le s (body + 8)) in
    if trace_id < 0 || parent_span < 0 then
      frame_error "negative trace context (%d, %d)" trace_id parent_span;
    (match inner_kind s (body + 16) (len - 16) with
     | '\x04' | '\x05' | '\x06' -> frame_error "nested traced envelope"
     | _ -> Traced { trace_id; parent_span; frame = decode_exn s (body + 16) (len - 16) })
  | '\x07' ->
    if len < 16 then frame_error "described frame with a %d-byte body" len;
    if id_field < 0 then frame_error "negative tenant id %d" id_field;
    let fingerprint = Int64.to_int (String.get_int64_le s body) in
    let deadline_ns = Int64.to_int (String.get_int64_le s (body + 8)) in
    if fingerprint < 0 || deadline_ns < 0 then
      frame_error "negative description (%d, %d)" fingerprint deadline_ns;
    (match inner_kind s (body + 16) (len - 16) with
     | '\x04' .. '\x07' -> frame_error "nested described envelope"
     | _ ->
       let frame = decode_exn s (body + 16) (len - 16) in
       Described { tenant = id_field; fingerprint; deadline_ns; frame })
  | c -> frame_error "unknown frame kind %C" c

(* Total variant for untrusted input. *)
let decode (s : string) : (frame, Pbio.Err.t) result =
  match decode_exn s 0 (String.length s) with
  | f -> Ok f
  | exception Frame_error msg -> Error (`Frame msg)
