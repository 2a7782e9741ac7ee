(** Ecode's assignment coercions: the implicit C conversions the Ecode
    typechecker makes explicit, with one implementation that both the
    Ecode closure compiler and fused codec plans ({!Codec.field_map}) run.
    A chain of retro-transformation hops collapsed into one fused plan
    applies exactly the coercions its hops would have applied, in order. *)

type t =
  | To_int
  | To_uint  (** wraps to 32 bits, like C unsigned conversion *)
  | To_float
  | To_char
  | To_bool
  | To_string
  | To_enum of Ptype.enum

(** A coercion with no valid result: an integer no case of the target
    enum carries.  Both Ecode engines also raise it for their own
    run-time failures, such as a division by zero. *)
exception Runtime_error of string

(** [compile ~from c] converts values of type [from] by [c], resolved
    once: a float truncates toward zero into the integer types, an
    integer into a char keeps its low byte.
    @raise Runtime_error from {!To_enum} on a value no case carries. *)
val compile : from:Ptype.t -> t -> Value.t -> Value.t

(** An integer boxed as a value of basic type [ty] by the same rules:
    unsigned wraps to 32 bits, char keeps the low byte, bool is non-zero,
    enum resolves to its declared case ({!Runtime_error} when none has the
    value); any other type boxes as [Int]. *)
val box_int : Ptype.t -> int -> Value.t

(** The text {!To_string} produces. *)
val string_of_value : Value.t -> string
