(** A hand-written XML parser: elements, attributes, character data, CDATA,
    comments, processing instructions, doctype, the five predefined
    entities and numeric character references.  Stands in for libxml2's
    parser in the Figure 8-10 baselines. *)

exception Error of string * int  (** message, byte offset *)

val parse : string -> (Xml.t, string) result
