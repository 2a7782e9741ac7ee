(** The XSLT execution engine: applies a stylesheet to a document, standing
    in for libxslt in the Figure 10 baseline. *)

module Xml = Xmlkit.Xml

exception Error of string

(** Apply the stylesheet to a document.  Built-in rules recurse through
    unmatched elements and copy text out.  One result node is returned as
    is; several are wrapped, in order, in a [<result>] fragment. *)
val apply_to_element : Stylesheet.t -> Xml.t -> Xml.t
