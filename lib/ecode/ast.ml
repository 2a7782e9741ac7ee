(* Abstract syntax for Ecode. *)

type loc = Token.loc

type unop =
  | Neg
  | Not
  | Bnot

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Band | Bor | Bxor | Shl | Shr

type assign_op =
  | Set
  | Add_eq | Sub_eq | Mul_eq | Div_eq | Mod_eq

type incr =
  | Pre_incr
  | Pre_decr
  | Post_incr
  | Post_decr

type expr = {
  e : expr_node;
  eloc : loc;
}

and expr_node =
  | Int_lit of int
  | Float_lit of float
  | Char_lit of char
  | String_lit of string
  | Bool_lit of bool
  | Ident of string
  | Field of expr * string            (* e.name *)
  | Index of expr * expr              (* e[i] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr        (* c ? a : b *)
  | Call of string * expr list
  | Assign of assign_op * expr * expr (* lvalue op= rhs; value is the rhs *)
  | Incr of incr * expr               (* ++x, x++, --x, x-- *)

(* Declarable local types: the basic types of the C subset. *)
type dtyp =
  | Dint
  | Duint
  | Dfloat
  | Dchar
  | Dbool
  | Dstring

type decl = {
  dname : string;
  dinit : expr option;
}

type stmt = {
  s : stmt_node;
  sloc : loc;
}

and stmt_node =
  | Decl of dtyp * decl list
  | Expr of expr
  | If of expr * stmt * stmt option
  | For of stmt option * expr option * expr option * stmt
  | While of expr * stmt
  | Do_while of stmt * expr
  | Switch of expr * switch_arm list
  | Block of stmt list
  | Return of expr option
  | Break
  | Continue
  | Empty

(* One [case .. :] group of a switch; C semantics with fallthrough, exited
   by [break].  [labels] holds the integer case values; [has_default] marks
   a [default:] label on this arm. *)
and switch_arm = {
  labels : int list;
  has_default : bool;
  body : stmt list;
}

(* A user-defined function: a returned basic type (or [None] for void),
   typed parameters and a body.  Ecode supports subroutines; recursion is
   allowed. *)
type fundef = {
  fret : dtyp option;
  fdname : string;
  fparams : (dtyp * string) list;
  fbody : stmt list;
  floc : loc;
}

(* A complete program: function definitions (any order, mutually recursive)
   and the main statement sequence. *)
type program = {
  funs : fundef list;
  main : stmt list;
}

type prog = program

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"
