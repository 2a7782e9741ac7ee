(* Binary wire codec for PBIO records — public, instrumented entry points.

   Message layout:
     header (16 bytes):
       magic   "PBIO"            4 bytes
       endian  0 = LE, 1 = BE    1 byte
       version                   1 byte
       reserved                  2 bytes
       format id                 4 bytes (unsigned, sender-local)
       payload length            4 bytes (unsigned)
     payload: fields in declaration order.
       int/uint  4 bytes        float  8 bytes (IEEE 754)
       char      1 byte         bool   1 byte
       enum      4 bytes        string 4-byte length + bytes
       record    fields inline
       array     elements inline; a variable array's count is the value of
                 its (earlier) length field, a fixed array's count is static.

   The sender writes in its native byte order (PBIO's "native data
   representation"); the receiver byte-swaps only when orders differ.

   The actual encoding/decoding lives in [Codec]: each call here pulls a
   compiled plan from the bounded per-format cache (building it on first
   use) and runs it.  The per-field interpreter survives as
   [Codec.Interp], the differential-testing reference. *)

type endian = Codec.endian = Little | Big

exception Encode_error = Codec.Encode_error
exception Decode_error = Codec.Decode_error

let header_size = Codec.header_size

type header = Codec.header = {
  endian : endian;
  format_id : int;
  payload_len : int;
}

(* --- encoding ------------------------------------------------------------- *)

let encode_payload ?(ctx = Ctx.default) ?(endian = Little) (r : Ptype.record)
    (v : Value.t) : string =
  Codec.encode_payload (Codec.encoder_for ~cache:(Ctx.codecs ctx) ~endian r) v

let encode_core ctx endian ~format_id (r : Ptype.record) (v : Value.t) : string =
  Codec.encode_message
    (Codec.encoder_for ~cache:(Ctx.codecs ctx) ~endian r)
    ~format_id v

let encode ?(ctx = Ctx.default) ?(endian = Little) ~format_id (r : Ptype.record)
    (v : Value.t) : string =
  let m = Ctx.wire ctx in
  if not m.wire_on then encode_core ctx endian ~format_id r v
  else begin
    let t0 = Obs.now m.wire_reg in
    let s = encode_core ctx endian ~format_id r v in
    Obs.Counter.incr m.encodes;
    Obs.Counter.add m.bytes_out (String.length s);
    Obs.Histogram.observe m.encode_ns (Obs.now m.wire_reg -. t0);
    s
  end

(* --- decoding ------------------------------------------------------------- *)

let decode_core ctx (r : Ptype.record) (data : string) : Value.t =
  let h = Codec.read_header data in
  Codec.decode_payload
    (Codec.decoder_for ~cache:(Ctx.codecs ctx) ~endian:h.endian r)
    ~pos:header_size data

let metered ~ctx (f : 'a -> string -> Value.t) (x : 'a) (data : string) : Value.t =
  let m = Ctx.wire ctx in
  if not m.wire_on then f x data
  else begin
    let t0 = Obs.now m.wire_reg in
    match f x data with
    | v ->
      Obs.Counter.incr m.decodes;
      Obs.Counter.add m.bytes_in (String.length data);
      Obs.Histogram.observe m.decode_ns (Obs.now m.wire_reg -. t0);
      v
    | exception e ->
      Obs.Counter.incr m.decode_errors;
      raise e
  end

(* Total on untrusted input: every decoding failure — including a type
   error surfaced while interpreting a hostile format description — comes
   back as [Error] instead of an exception. *)

let wrap (f : unit -> 'a) : ('a, Err.t) result =
  match f () with
  | v -> Ok v
  | exception Decode_error msg -> Error (`Decode msg)
  | exception Value.Type_error msg -> Error (`Type msg)

let read_header data = wrap (fun () -> Codec.read_header data)

let decode ?(ctx = Ctx.default) r data =
  wrap (fun () -> metered ~ctx (decode_core ctx) r data)

let decode_payload ?(ctx = Ctx.default) ?(endian = Little) r data =
  wrap (fun () ->
      Codec.decode_payload (Codec.decoder_for ~cache:(Ctx.codecs ctx) ~endian r) data)
