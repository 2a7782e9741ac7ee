(** XML encoding of PBIO-typed values: the comparison baseline of the
    paper's evaluation (Section 5).

    Mapping: the base record becomes the root element, each field a child
    element named after the field; nested records recurse and array fields
    repeat their element once per entry.  Tags carry all the meta-data
    inline — exactly the size overhead Table 1 measures. *)

open Pbio

exception Xml_decode_error of string

(** Serialise straight into text (the paper's sprintf/strcat encoder path,
    measured by Figure 8). *)
val encode : Ptype.record -> Value.t -> string

(** Tree form, for the XSLT engine. *)
val to_xml : Ptype.record -> Value.t -> Xml.t

(** Traverse a parsed document into a typed value (the final component of
    the Figure 9/10 decode paths).  Missing fields take defaults, unknown
    elements are ignored (XML-style tolerance), variable-array length
    fields are re-synchronised from the actual element counts. *)
val of_xml : Ptype.record -> Xml.t -> Value.t

(** [decode fmt text] = parse, then {!of_xml}.  Failures — malformed XML or
    content that does not fit the format — are [Error (`Decode _)]. *)
val decode : Ptype.record -> string -> (Value.t, Err.t) result
