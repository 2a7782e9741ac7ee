(* Tokens for the Ecode language, the C subset used by the paper's
   transformation snippets (Figure 5). *)

type loc = {
  line : int;
  col : int;
}

let pp_loc ppf l = Fmt.pf ppf "%d:%d" l.line l.col

type t =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Char_lit of char
  | String_lit of string
  | Kw of string (* int, unsigned, long, float, double, char, bool, string,
                    if, else, for, while, do, return, break, continue,
                    true, false *)
  | Op of string (* operators and punctuation *)
  | Eof

type spanned = {
  tok : t;
  loc : loc;
}

let keywords =
  [ "int"; "unsigned"; "long"; "float"; "double"; "char"; "bool"; "string";
    "if"; "else"; "for"; "while"; "do"; "return"; "break"; "continue";
    "switch"; "case"; "default"; "void";
    "true"; "false" ]

let pp ppf = function
  | Ident s -> Fmt.pf ppf "identifier %S" s
  | Int_lit n -> Fmt.pf ppf "integer %d" n
  | Float_lit x -> Fmt.pf ppf "float %g" x
  | Char_lit c -> Fmt.pf ppf "char %C" c
  | String_lit s -> Fmt.pf ppf "string %S" s
  | Kw s -> Fmt.pf ppf "keyword %S" s
  | Op s -> Fmt.pf ppf "%S" s
  | Eof -> Fmt.string ppf "end of input"
