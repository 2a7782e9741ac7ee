(** Dynamic record values carried by the messaging layer.

    A value mirrors a {!Ptype.t}: records are arrays of mutable named
    entries (mutability is what lets compiled Ecode transformations write
    into a target message in place), arrays are growable so transformation
    code can append entries one at a time, as the paper's Figure 5 code
    does. *)

type t =
  | Int of int
  | Uint of int
  | Float of float
  | Char of char
  | Bool of bool
  | Enum of string * int  (** case name, numeric value *)
  | String of string
  | Record of entry array
  | Array of dynarray

and entry = {
  name : string;
  mutable v : t;
}

(** The first [len] of [items] are the elements; slots past [len] are
    spare capacity and hold nothing an accessor returns. *)
and dynarray = {
  mutable items : t array;
  mutable len : int;
}

(** Raised by accessors applied to values of the wrong shape. *)
exception Type_error of string

(** {1 Constructors} *)

(** [record fields] builds a record value with the given named fields, in
    order. *)
val record : (string * t) list -> t

(** [array_of_list vs] builds an array value. *)
val array_of_list : t list -> t

(** {1 Scalar accessors}

    C-style coercions: integers, unsigneds, enums, chars and booleans
    interconvert freely; [to_int] of a float is a {!Type_error} (use
    [to_float]). *)

val to_int : t -> int
val to_float : t -> float
val to_bool : t -> bool
val to_string_exn : t -> string

(** {1 Record access} *)

val entries : t -> entry array
val field_index : entry array -> string -> int option
val get_field : t -> string -> t
val set_field : t -> string -> t -> unit
val has_field : t -> string -> bool

(** Positional access, used by compiled code after name resolution. *)
val field_at : t -> int -> t

val set_at : t -> int -> t -> unit

(** {1 Array access} *)

val dyn : t -> dynarray
val array_len : t -> int
val array_get : t -> int -> t

(** [array_set ~fill a i x] stores [x] at index [i], growing the array
    when [i] is at or past the end; each gap slot gets its own copy of
    [fill] (the first slot [fill] itself).  Both Ecode engines store an
    element through it.  Raises {!Type_error} for an index below 0 or at
    or past [Sys.max_array_length], before the array grows. *)
val array_set : fill:t -> t -> int -> t -> unit

val array_push : t -> t -> unit
val array_truncate : t -> int -> unit

(** {1 Deep operations} *)

(** Structure-preserving deep copy (record and array assignment in Ecode
    copies, like C struct assignment). *)
val copy : t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Defaults and conformance} *)

(** Interpret a default constant at a basic type. *)
val of_const : Ptype.const -> ty:Ptype.basic -> t

(** The zero value of a basic type (first case for enums). *)
val zero_basic : Ptype.basic -> t

(** The default value of a type: explicit field defaults where declared,
    zeros elsewhere; fixed arrays filled, variable arrays empty. *)
val default : Ptype.t -> t

val default_record : Ptype.record -> t

(** Does the value match the type description exactly (names, shapes,
    fixed-array lengths, enum cases)? *)
val conforms : Ptype.t -> t -> bool

(** [compile_sync r] is a plan, built once, that overwrites every
    variable-array length field of an [r] value with the actual array
    length, recursively.  Encoders require the two to agree.  The plan
    visits only length fields and the fields and array elements whose type
    holds a variable array; it allocates nothing when the lengths already
    agree.  Raises {!Type_error} when a length field is missing. *)
val compile_sync : Ptype.record -> t -> unit

(** One-shot {!compile_sync}: [sync_lengths r v] is [compile_sync r v]. *)
val sync_lengths : Ptype.record -> t -> unit
