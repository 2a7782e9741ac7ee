(** Size accounting for Table 1 of the paper. *)

(** [unencoded fmt v] models the in-memory ("unencoded") size in bytes of a
    C data-structure block holding the message: 4-byte ints, unsigneds,
    booleans and enums, 8-byte doubles, 1-byte chars, strings as their
    bytes plus a NUL terminator, arrays as their elements.  The baseline
    row of Table 1. *)
val unencoded : Ptype.record -> Value.t -> int

val unencoded_type : Ptype.t -> Value.t -> int

(** Exact wire-payload size, without encoding; agrees with {!Wire.encode}
    (property-tested). *)
val wire_payload : Ptype.record -> Value.t -> int
