(** Unified error surface for the morphing stack.

    Every decode/convert/morph entry point across the libraries returns
    [('a, Err.t) result] with this one error type, so call sites can
    pattern-match on the failure class without knowing which layer
    produced it.  The payload is always a human-readable message; the
    tag says which contract was violated. *)

type t =
  [ `Decode of string   (** malformed or truncated wire message *)
  | `Encode of string   (** value does not fit the declared format *)
  | `Frame of string    (** transport framing violation *)
  | `Meta of string     (** malformed or inconsistent format meta-data *)
  | `Type of string     (** value/type mismatch during conversion *)
  | `Xform of string    (** transformation failed to compile or run *)
  | `No_match of string (** receiver found no acceptable morph path *)
  | `Config of string   (** out-of-range or contradictory configuration *)
  | `Internal of string (** invariant violation; please report *) ]

val message : t -> string
(** The payload, without the tag. *)

val to_string : t -> string
(** ["tag: message"]. *)

val pp : Format.formatter -> t -> unit
