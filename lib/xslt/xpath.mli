(** An XPath 1.0 subset: location paths over child/self/descendant axes
    with attribute and text() tests, plus the expression forms XSLT
    conditionals need — comparisons, boolean connectives, arithmetic
    ([+ - * div mod]), [count()], [position()], [last()], [not()],
    [concat()], [round()], [name()], literals and numbers.

    No parent axis: the engine tracks ancestors itself. *)

module Xml = Xmlkit.Xml

exception Parse_error of string

type test =
  | Name of string
  | Any
  | Text_test
  | Attr of string
  | Self_test
  | Descendants  (** the [//] shorthand *)

type step = {
  test : test;
  preds : expr list;
}

and path = {
  absolute : bool;
  steps : step list;
}

and expr =
  | Path of path
  | Literal of string
  | Number of float
  | Cmp of cmp * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Count of path
  | Position
  | Last
  | True_
  | False_
  | Concat of expr list
  | Name_fn
  | Arith of aop * expr * expr
  | Round of expr
  | Var of string  (** [$name]: an [xsl:variable] binding *)

and cmp = Eq | Ne | Lt | Le | Gt | Ge

and aop = Aadd | Asub | Amul | Adiv | Amod

val path_of_string : string -> path
val expr_of_string : string -> expr

(** Items flowing through path evaluation: tree nodes carrying their
    ancestor tag chain (nearest first), or attribute values. *)
type item =
  | Node of Xml.t * string list
  | Attr_item of string * string

type ctx = {
  item : item;
  position : int;  (** 1-based *)
  size : int;
  root : Xml.t;
  vars : (string * string) list;  (** variable bindings, innermost first *)
}

(** Evaluate a location path against a context. *)
val select : ctx -> path -> item list

val eval_bool : ctx -> expr -> bool
val eval_string : ctx -> expr -> string
val eval_number : ctx -> expr -> float
