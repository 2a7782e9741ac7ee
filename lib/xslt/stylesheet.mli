(** XSLT stylesheet representation and parsing (from an XML document).

    Supported instruction set — enough to express the paper's message
    transformations: template/match, apply-templates, value-of, copy-of,
    for-each, if, choose/when/otherwise, element, attribute, text, copy,
    variable (with [$name] references in XPath), plus literal result
    elements with [{path}] attribute value templates. *)

module Xml = Xmlkit.Xml

exception Error of string

(** Match patterns: an optional root anchor and a chain of node tests the
    node and its nearest ancestors must satisfy — ["/"], ["member_list"],
    ["ChannelOpenResponse/member_list"], ["*"], ["text()"]. *)
type ptest =
  | Pname of string
  | Pany
  | Ptext

type pattern = {
  anchored : bool;
  tests : ptest list;  (** outermost first *)
}

type template = {
  pattern : pattern;
  prio : float;
  order : int;
  body : Xml.t list;
}

type t

val of_string : string -> t

(** Best template for a node (templates are pre-sorted best-first). *)
val find : t -> tag:string option -> ancestors:string list -> template option

(** The template matching the document root (["/"]), if any. *)
val find_root : t -> template option
