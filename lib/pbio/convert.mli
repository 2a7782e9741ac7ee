(** Structural format conversion, compiled once per format pair.

    This is the PBIO piece of "dynamic code generation": given the wire
    format of an incoming record and the (different) format the receiver
    registered, {!compile} produces a specialised closure chain in which
    every field-name lookup, type dispatch and coercion has been resolved
    ahead of time.  Per message, only direct calls remain.

    Semantics follow the paper's imperfect-match step (Algorithm 2, lines
    26-29): fields are matched by name; target fields missing from the
    source take their default values; source fields absent from the target
    are dropped; numeric types coerce, enums map by case name, nested
    records and arrays recurse; target length fields are re-synchronised. *)

type conv = Value.t -> Value.t

(** [compile ~from_ ~into] builds the specialised converter.  The plan is
    reusable across any number of messages of the [from_] format.  Always
    compiles afresh and records nowhere: [Morph.Plan] compiles the
    conversions a delivery needs once, timed into its context. *)
val compile : from_:Ptype.record -> into:Ptype.record -> conv

(** One-shot conversion: {!compile}, then run once.  [Error (`Type _)]
    when the value does not conform to [from_]. *)
val convert :
  from_:Ptype.record -> into:Ptype.record -> Value.t -> (Value.t, Err.t) result

(** Conversion between two types, or [None] when the shapes are
    incompatible (the target field then takes its default).  Building
    block for fused plans ({!Codec.compile_morph}). *)
val compile_type : Ptype.t -> Ptype.t -> conv option

(** [compile_type src dst <> None], without compiling. *)
val convertible : Ptype.t -> Ptype.t -> bool

(** Default-value thunk for a field, honouring declared constant defaults;
    immutable scalars are shared, complex values copied per call. *)
val field_default : Ptype.field -> unit -> Value.t
