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
let magic = Codec.magic
let wire_version = Codec.wire_version

type header = Codec.header = {
  endian : endian;
  format_id : int;
  payload_len : int;
}

let min_wire_size = Codec.min_wire_size

(* --- observability ------------------------------------------------------- *)

type metrics = {
  mon : bool;
  mreg : Obs.t;
  encodes : Obs.Counter.h;
  decodes : Obs.Counter.h;
  decode_errors : Obs.Counter.h;
  bytes_out : Obs.Counter.h;
  bytes_in : Obs.Counter.h;
  encode_ns : Obs.Histogram.h;
  decode_ns : Obs.Histogram.h;
}

let make_metrics reg =
  {
    mon = Obs.enabled reg;
    mreg = reg;
    encodes = Obs.Counter.make reg "wire.encodes";
    decodes = Obs.Counter.make reg "wire.decodes";
    decode_errors = Obs.Counter.make reg "wire.decode_errors";
    bytes_out = Obs.Counter.make reg ~unit_:"bytes" "wire.bytes_out";
    bytes_in = Obs.Counter.make reg ~unit_:"bytes" "wire.bytes_in";
    encode_ns = Obs.Histogram.make reg ~unit_:"ns" "wire.encode_ns";
    decode_ns = Obs.Histogram.make reg ~unit_:"ns" "wire.decode_ns";
  }

let metrics = ref (make_metrics Obs.null)
let set_metrics reg = metrics := make_metrics reg

(* Per-ctx metric handles, minted on first use against the ctx's Obs
   registry.  The memo is domain-local: handle records are cheap to mint
   and re-minting per domain keeps registry interning single-domain (a
   registry is owned by one domain; see docs/CONCURRENCY.md).  The list
   is bounded — callers cycle through a handful of contexts, not
   thousands. *)
let ctx_metrics_key : (Ctx.t * metrics) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let metrics_for (ctx : Ctx.t option) : metrics =
  match ctx with
  | None -> !metrics
  | Some c ->
    let l = Domain.DLS.get ctx_metrics_key in
    (match List.assq c l with
     | m -> m
     | exception Not_found ->
       let m = make_metrics (Ctx.obs c) in
       let l = List.filteri (fun i _ -> i < 7) l in
       Domain.DLS.set ctx_metrics_key ((c, m) :: l);
       m)

let cache_of (ctx : Ctx.t option) : Codec.cache option =
  match ctx with None -> None | Some c -> Some (Ctx.codecs c)

(* --- encoding ------------------------------------------------------------- *)

let encode_payload ?ctx ?(endian = Little) (r : Ptype.record) (v : Value.t) :
  string =
  Codec.encode_payload (Codec.encoder_for ?cache:(cache_of ctx) ~endian r) v

let encode_core ?ctx ?(endian = Little) ~format_id (r : Ptype.record)
    (v : Value.t) : string =
  Codec.encode_message
    (Codec.encoder_for ?cache:(cache_of ctx) ~endian r)
    ~format_id v

let encode ?ctx ?endian ~format_id (r : Ptype.record) (v : Value.t) : string =
  let m = metrics_for ctx in
  if not m.mon then encode_core ?ctx ?endian ~format_id r v
  else begin
    let t0 = Obs.now m.mreg in
    let s = encode_core ?ctx ?endian ~format_id r v in
    Obs.Counter.incr m.encodes;
    Obs.Counter.add m.bytes_out (String.length s);
    Obs.Histogram.observe m.encode_ns (Obs.now m.mreg -. t0);
    s
  end

(* --- decoding ------------------------------------------------------------- *)

let decode_payload_core ?ctx ?(endian = Little) (r : Ptype.record)
    (data : string) : Value.t =
  Codec.decode_payload (Codec.decoder_for ?cache:(cache_of ctx) ~endian r) data

let decode_core ?ctx (r : Ptype.record) (data : string) : Value.t =
  let h = Codec.read_header data in
  Codec.decode_payload
    (Codec.decoder_for ?cache:(cache_of ctx) ~endian:h.endian r)
    ~pos:header_size data

let metered ?ctx (f : 'a -> string -> Value.t) (x : 'a) (data : string) : Value.t =
  let m = metrics_for ctx in
  if not m.mon then f x data
  else begin
    let t0 = Obs.now m.mreg in
    match f x data with
    | v ->
      Obs.Counter.incr m.decodes;
      Obs.Counter.add m.bytes_in (String.length data);
      Obs.Histogram.observe m.decode_ns (Obs.now m.mreg -. t0);
      v
    | exception e ->
      Obs.Counter.incr m.decode_errors;
      raise e
  end

let decode_raise ?ctx (r : Ptype.record) (data : string) : Value.t =
  metered ?ctx (decode_core ?ctx) r data

(* Total on untrusted input: every decoding failure — including a type
   error surfaced while interpreting a hostile format description — comes
   back as [Error] instead of an exception. *)

let wrap (f : unit -> 'a) : ('a, Err.t) result =
  match f () with
  | v -> Ok v
  | exception Decode_error msg -> Error (`Decode msg)
  | exception Value.Type_error msg -> Error (`Type msg)

let read_header data = wrap (fun () -> Codec.read_header data)
let decode ?ctx r data = wrap (fun () -> decode_raise ?ctx r data)

let decode_payload ?ctx ?endian r data =
  wrap (fun () -> decode_payload_core ?ctx ?endian r data)
