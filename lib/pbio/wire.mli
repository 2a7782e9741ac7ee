(** Binary wire codec for PBIO records.

    Message layout: a 16-byte header (magic, byte order, version, sender-
    local format id, payload length) followed by the fields in declaration
    order — 4-byte ints/unsigneds/enums, 8-byte IEEE floats, 1-byte chars
    and booleans, length-prefixed strings, records inline, array elements
    inline.  A variable array's count is the value of its (earlier) length
    field; no count travels on the wire.

    The sender writes in its native byte order (PBIO's "native data
    representation"); the receiver byte-swaps only when orders differ.

    Decoding is result-typed: wire input is untrusted, so every decoding
    entry point returns [('a, Err.t) result].  Encoding raises
    {!Encode_error} — the value and format come from the sender itself,
    and a mismatch there is a programming error, not an input error.

    Every call runs a compiled plan from {!Codec}'s bounded per-format
    cache, built on first use for the format/endianness pair (counted in
    [codec.plan_compiles]); the original per-field interpreter survives
    as {!Codec.Interp}, the differential-testing reference. *)

type endian = Codec.endian =
  | Little
  | Big

exception Encode_error of string
(** The same exception as {!Codec.Encode_error}. *)

exception Decode_error of string
(** The same exception as {!Codec.Decode_error}; never escapes the
    result-typed decoders below. *)

(** Header size in bytes (16 — the paper reports PBIO adds <30 bytes). *)
val header_size : int

type header = Codec.header = {
  endian : endian;
  format_id : int;
  payload_len : int;
}

(** {1 Encoding}

    Every entry point takes an optional [?ctx] {!Ctx.t}: plans are
    pulled from that context's cache and metrics recorded into its
    registry ([wire.encodes]/[wire.decodes]/[wire.decode_errors]
    counters, [wire.bytes_out]/[wire.bytes_in] byte counters and
    [wire.encode_ns]/[wire.decode_ns] latency histograms; {!Obs.null}
    skips the clock reads entirely).  Omitted, it is {!Ctx.default}. *)

(** [encode ~endian ~format_id fmt v] is the complete wire message (header
    plus payload).  Raises {!Encode_error} if [v] does not conform to
    [fmt], an int exceeds 32 bits, a fixed array has the wrong length, or a
    variable array disagrees with its length field (call
    {!Value.sync_lengths} first). *)
val encode :
  ?ctx:Ctx.t -> ?endian:endian -> format_id:int -> Ptype.record -> Value.t -> string

(** Payload only, without the header. *)
val encode_payload : ?ctx:Ctx.t -> ?endian:endian -> Ptype.record -> Value.t -> string

(** {1 Decoding}

    Total on any input: a decoding failure is [Error (`Decode _)], and a
    type error surfaced while interpreting a hostile format description is
    [Error (`Type _)]; corrupted length fields are rejected before any
    large allocation. *)

(** Parse and check the 16-byte header. *)
val read_header : string -> (header, Err.t) result

(** [decode fmt message] decodes a complete wire message against [fmt]
    (which must be the {e writer's} format — conversion to the reader's
    format is the morphing layer's job). *)
val decode : ?ctx:Ctx.t -> Ptype.record -> string -> (Value.t, Err.t) result

(** Decode a bare payload (no header) in the given byte order. *)
val decode_payload :
  ?ctx:Ctx.t -> ?endian:endian -> Ptype.record -> string -> (Value.t, Err.t) result

(** [metered ~ctx f x message] is [f x message] on a complete wire
    message, recorded into [ctx] as {!decode} records it ([wire.decodes], [wire.bytes_in],
    [wire.decode_ns], or [wire.decode_errors] when [f] raises): for
    callers that hold compiled decoders ([Morph.Plan]) and so skip
    {!decode}'s per-call plan lookup. *)
val metered : ctx:Ctx.t -> ('a -> string -> Value.t) -> 'a -> string -> Value.t
