(** Compiled wire-codec plans: the wire-layer half of substitution S1.

    {!compile_encode}, {!compile_decode} and {!compile_morph} walk a
    format description once and emit flat plans of specialised closures —
    per-endian primitive readers/writers resolved at compile time, enum
    value<->case hash tables instead of [List.find_opt], length-field
    references bound to slot indices, and each array element's minimum
    wire size precomputed.  Encoders render through one domain-local
    scratch buffer.  Per message, only direct calls remain.

    {!compile_morph} additionally fuses wire decoding of the sender's
    format into construction of the {e receiver's} value layout: dropped
    source fields are skipped on the wire (with identical bounds and enum
    validity checks), matched fields decode straight into the target slot
    through the {!Convert} coercion when types differ, and missing target
    fields take defaults — one pass, no intermediate source-format value.
    Fused plans are observationally identical to decode-then-convert; the
    morphcheck "codec" oracle enforces this differentially.  Every fused
    plan is compiled from a {!field_map}, and a map from outside the codec
    compiles only once {!check_map} has accepted it, so the map compiler
    has no failure path of its own.

    Every reader shares two rules.  A record whose fields a plan keeps
    only some of (a skipped record, an element read by an element map, a
    fused map's source) drops the rest with a decode's checks: adjacent
    fixed-width fields, across nested records too, in a single bounds
    check, a string and the fixed bytes after it in one step, and a
    dropped field a later array sizes from is still read.  A nested
    record converted by name, in its own field order, is read in one
    pass straight into its target record.  Every array count — decoded, skipped, converted or
    element-mapped — passes one guard before any element is read or
    allocated: a negative count, or one the rest of the message cannot
    hold at the element's minimum wire size, raises {!Decode_error} with
    the interpreter's text.

    [Wire] re-exports the message-level API as thin wrappers over the
    {!encoder_for}/{!decoder_for} plan cache; [Morph.Receiver] caches
    {!morpher_in} plans alongside its match pipelines.  The interpretive
    cores live in {!Interp} as the reference implementation. *)

type endian = Little | Big

exception Encode_error of string
exception Decode_error of string

val header_size : int

type header = {
  endian : endian;
  format_id : int;
  payload_len : int;
}

(** Parse and validate the 16-byte message header.
    @raise Decode_error on any malformation. *)
val read_header : string -> header

(** {1 Compiled plans} *)

type encoder
type decoder
type morpher

(** Compile an encode plan for one format at one endianness.  Plans are
    immutable closure trees safe to share across domains; the scratch
    buffer encodes render through is domain-local. *)
val compile_encode : endian:endian -> Ptype.record -> encoder

val compile_decode : endian:endian -> Ptype.record -> decoder

(** {1 Field maps}

    A fused plan is compiled from a field map: for each target field,
    which source field it takes and through which steps, or which
    constant it holds.  A structural conversion has Convert's map: each
    target field from the first source field of its name, converted when
    the types differ, and the target's default for a missing name or
    inconvertible types.  A field map is also the one form of a
    retro-transformation hop ([Ecode.compile_hop] reads one out of a
    hop's code) and of a chain of them ([Xform.collapse] composes hops by
    substituting each one's slots into the last), whose steps are the
    hops' Ecode coercions.  Only a map {!check_map} accepts compiles. *)

(** One step applied to a source field's value. *)
type step =
  | Coerce of Ptype.t * Coerce.t
      (** an Ecode assignment coercion from a value of the given type *)
  | Convert of Ptype.t * Ptype.t
      (** {!Convert.compile_type} from the first type into the second *)

(** How a fused plan produces one target field. *)
type slot =
  | Take of int * step list
      (** source field [i] (by position), through each step in order *)
  | Const of Value.t  (** a constant, copied per message when mutable *)
  | Each of each
      (** an array built from a source array of records, element by
          element, as a Figure 5 loop builds one *)

(** An element map: one target element per element of source array
    [array] whose [guard] holds, or per element when there is none.  Each
    target element field comes from [elem]: [Take (g, steps)] reads field
    [g] of the source element, [Const] is the field's value when no store
    writes it.  The guard is the source element's field [p] through its
    steps, kept when {!Value.to_bool} of it holds.  No step may coerce
    into an enum ({!check_map}), so an element map cannot fail. *)
and each = {
  array : int;
  guard : (int * step list) option;
  elem : slot array;
}

(** One slot per target field, in order, plus [checks]: source fields and
    steps run for their failures alone, in order, before any slot — the
    stores whose coercion can fail (into an enum), so a message fails as
    its hops would fail it even where no target field keeps the value. *)
type field_map = {
  slots : slot array;
  checks : (int * step list) list;
}

(** A map {!check_map} accepted, with the formats it was checked
    against. *)
type checked

(** Every rule a map must obey to compile, checked in one place: one slot
    per target field; every field a slot, check or element map reads
    exists; every [Convert] step converts; an element map reads a source
    array of records into a target array of records, with one slot per
    target element field, no step into an enum and no element map inside.
    [Error] names the rule the map breaks. *)
val check_map :
  from_:Ptype.record -> into:Ptype.record -> field_map -> (checked, string) result

(** The fused plan of a structural conversion: bytes of [from_] in,
    value laid out as [into] out, then [into]'s length fields synced.
    Fields no slot takes are skipped on the wire with the same validity
    checks as a decode. *)
val compile_morph : endian:endian -> from_:Ptype.record -> into:Ptype.record -> morpher

(** [encode_payload enc v] renders the payload bytes (no header).
    @raise Encode_error when [v] does not conform to the plan's format
    @raise Value.Type_error on malformed values. *)
val encode_payload : encoder -> Value.t -> string

(** Full message: header + payload. *)
val encode_message : encoder -> format_id:int -> Value.t -> string

(** [decode_payload dec ?pos data] decodes from [pos] (default 0) to the
    end of [data]; trailing bytes are an error.
    @raise Decode_error on malformed or truncated input. *)
val decode_payload : decoder -> ?pos:int -> string -> Value.t

(** Fused decode->morph over a payload, same contract as
    {!decode_payload}.
    @raise Coerce.Runtime_error when a map's coercion fails, after the
    payload decoded whole. *)
val morph_payload : morpher -> ?pos:int -> string -> Value.t

(** {1 Plan caches}

    A {!cache} is the codec component of a [Pbio.Ctx.t] capability:
    bounded (a {!Lru} of 512 entries per table kind, so hostile shipped
    meta-data cannot grow it without limit and a burst of fresh formats
    cannot flush the hot ones), keyed by {!Ptype.hash_record} with
    structural equality, and safe to share across domains — one mutex
    guards the tables, and a domain-local 1-slot physical-identity memo
    in front keeps the per-message fast path lock-free.  Plans compiled
    through a cache tick [codec.plan_compiles] and [codec.compile_ns] on
    the cache's registry; hits tick [codec.plan_cache_hits] and
    evictions [codec.plan_evictions].  The [compile_*] functions above
    record nowhere. *)

type cache

(** [create_cache ()] builds an independent plan cache.  [metrics]
    (default {!Obs.null}) receives its compile, hit and eviction series —
    when the cache is shared across domains, pass {!Obs.null} or accept
    racy (lossy but memory-safe) counts. *)
val create_cache : ?metrics:Obs.t -> unit -> cache

val encoder_for : cache:cache -> endian:endian -> Ptype.record -> encoder
val decoder_for : cache:cache -> endian:endian -> Ptype.record -> decoder

(** Fused morph plan from [cache]. *)
val morpher_in :
  cache -> endian:endian -> from_:Ptype.record -> into:Ptype.record -> morpher

(** Compile a fused plan from a checked field map, afresh and not cached,
    timed into [cache]'s registry as a cached compile is: bytes of the
    map's source format in, a value of its target out.  Source fields taken
    through structural steps only decode straight into place, nested
    records and arrays by name; fields no slot or check takes are skipped
    on the wire.  A source array that element maps take is read one
    element at a time, each map appending its own element as it goes;
    the first list to take a record or array field keeps the decoded
    value and every later one a copy.  Checks and coercions run only
    once the whole message has decoded and the trailing-bytes check has
    passed, so a malformed message is a {!Decode_error}, never a
    coercion failure. *)
val compile_map_in : cache -> endian:endian -> checked -> morpher

(** Live entries across both plan tables. *)
val plan_cache_size : cache:cache -> int

(** {1 Interpretive reference implementation}

    The original per-field interpreter, kept as the differential-testing
    baseline.  Same error behaviour as the compiled plans. *)
module Interp : sig
  val encode_payload : endian:endian -> Ptype.record -> Value.t -> string
  val encode_message : endian:endian -> format_id:int -> Ptype.record -> Value.t -> string
  val decode_payload : endian:endian -> ?pos:int -> Ptype.record -> string -> Value.t
end
