(** A small XML document model, standing in for libxml2's tree API
    (DESIGN.md, substitution S2). *)

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

(** The element's tag, or [None] for text nodes. *)
val tag_of : t -> string option

val attr : element -> string -> string option
val children : t -> t list
val child_elements : t -> element list
val find_child : element -> string -> element option

(** The concatenated character data of a node, as XPath's [string()]. *)
val text_content : t -> string

val is_blank : string -> bool

(** Structural equality ignoring pure-whitespace text nodes and attribute
    order. *)
val equal : t -> t -> bool
