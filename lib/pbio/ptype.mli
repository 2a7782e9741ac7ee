(** Field type descriptions for PBIO record formats.

    A format describes the names, types, sizes and positions of the fields
    of the records a writer emits (paper, Section 3.2 / Figure 2).  Types
    are split, as in the paper, into {e basic} types (integer, unsigned
    integer, float, char, boolean, enumeration, string) and {e complex}
    types built from collections of other fields (records and arrays). *)

(** An enumeration type: a name and its cases with their numeric values. *)
type enum = {
  ename : string;
  cases : (string * int) list;
}

(** The basic (leaf) field types. *)
type basic =
  | Int
  | Uint
  | Float
  | Char
  | Bool
  | String
  | Enum of enum

(** Constant literals usable as per-field default values (filled in for
    fields a converted message is missing — Algorithm 2, line 27). *)
type const =
  | Cint of int
  | Cfloat of float
  | Cchar of char
  | Cbool of bool
  | Cstring of string
  | Cenum of string  (** an enum case, by name *)

type t =
  | Basic of basic
  | Record of record
  | Array of array_spec

and record = {
  rname : string;  (** the format name; MaxMatch compares formats that share it *)
  fields : field list;
}

and field = {
  fname : string;
  ftype : t;
  fdefault : const option;
}

and array_spec = {
  elem : t;
  size : size;
}

(** Array sizing: [Fixed n] elements, or the value of a preceding integer
    sibling field named by [Length_field] (PBIO's variable arrays). *)
and size =
  | Fixed of int
  | Length_field of string

(** {1 Constructors} *)

val field : ?default:const -> string -> t -> field

val int_ : t
val uint : t
val float_ : t
val char_ : t
val bool_ : t
val string_ : t

(** [enum name cases] is a basic enumeration type. *)
val enum : string -> (string * int) list -> t

(** [record name fields] is a record type (a base format when used as the
    top level of a message). *)
val record : string -> field list -> record

val array_fixed : int -> t -> t

(** [array_var length_field elem] is a variable array whose element count is
    the value of the integer field [length_field], which must be declared
    earlier in the same record (checked by {!validate}). *)
val array_var : string -> t -> t

(** {1 Queries} *)

val is_basic : t -> bool

(** The weight W{_f} of a format: the total number of basic-type fields,
    counting basic fields nested inside complex fields (paper, Section 3.1).
    An array weighs as much as one element. *)
val weight : record -> int

val weight_of_type : t -> int

val find_field : record -> string -> field option

(** The position of the first field of [record] with the given name: the
    one field-by-name rule that decoders, conversions, Ecode and length
    syncs share. *)
val field_index : record -> string -> int option

(** {1 Identity}

    Structural equality and hashing over whole formats; receiver caches and
    registries key on these.  Field order matters: formats listing the same
    fields in different orders are distinct wire formats.  Float defaults
    compare by their bits, as {!Meta} encodes them, so equality is
    reflexive even for a [nan] default, and [0.0] and [-0.0] differ. *)

val equal_type : t -> t -> bool
val equal_basic : basic -> basic -> bool
val equal_record : record -> record -> bool
val hash_record : record -> int

(** {1 Validation} *)

type error = {
  where : string;  (** dotted path to the offending field *)
  what : string;
}

(** Check well-formedness: unique field names per record, variable-array
    length fields that exist, are integers and precede their array,
    non-empty enums, non-negative fixed sizes. *)
val validate : record -> (unit, error) result

(** {1 Pretty-printing} *)

val pp_type : Format.formatter -> t -> unit
val pp_record : Format.formatter -> record -> unit
val record_to_string : record -> string
