(* Hand-written lexer for Ecode.  Characters are read with an explicit end
   check and matched directly; one-character operators and keywords come
   from tables built once, so lexing allocates only the tokens it
   returns. *)

exception Error of string * Token.loc

let error loc fmt = Fmt.kstr (fun s -> raise (Error (s, loc))) fmt

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let loc st : Token.loc = { line = st.line; col = st.pos - st.bol + 1 }

(* Is the character [k] places ahead [c]?  False past the end. *)
let[@inline] ahead_is st k c = st.pos + k < st.len && st.src.[st.pos + k] = c

let[@inline] advance st =
  if ahead_is st 0 '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let[@inline] is_digit c = match c with '0' .. '9' -> true | _ -> false
let[@inline] is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true | _ -> false

module Names = Hashtbl.Make (String)

let keyword_table : unit Names.t =
  let t = Names.create 32 in
  List.iter (fun k -> Names.replace t k ()) Token.keywords;
  t

let rec skip_ws_and_comments st =
  if st.pos < st.len then
    match st.src.[st.pos] with
    | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_ws_and_comments st
    | '/' when ahead_is st 1 '/' ->
      while st.pos < st.len && st.src.[st.pos] <> '\n' do advance st done;
      skip_ws_and_comments st
    | '/' when ahead_is st 1 '*' ->
      let line = st.line and col = st.pos - st.bol + 1 in
      advance st;
      advance st;
      while not (ahead_is st 0 '*' && ahead_is st 1 '/') do
        if st.pos >= st.len then error ({ line; col } : Token.loc) "unterminated comment";
        advance st
      done;
      advance st;
      advance st;
      skip_ws_and_comments st
    | _ -> ()

let skip_digits st =
  while st.pos < st.len && is_digit st.src.[st.pos] do advance st done

(* A literal [int_of_string] or [float_of_string] cannot read (past
   [max_int], or an exponent with no digits) is an error at [where], the
   literal's start. *)
let lex_number st where : Token.t =
  let start = st.pos in
  skip_digits st;
  let is_float =
    (ahead_is st 0 '.' && st.pos + 1 < st.len && is_digit st.src.[st.pos + 1])
    || ahead_is st 0 'e' || ahead_is st 0 'E'
  in
  if is_float then begin
    if ahead_is st 0 '.' then begin
      advance st;
      skip_digits st
    end;
    if ahead_is st 0 'e' || ahead_is st 0 'E' then begin
      advance st;
      if ahead_is st 0 '+' || ahead_is st 0 '-' then advance st;
      skip_digits st
    end
  end;
  let text = String.sub st.src start (st.pos - start) in
  if is_float then
    match float_of_string_opt text with
    | Some x -> Token.Float_lit x
    | None -> error where "malformed float literal %s" text
  else
    match int_of_string_opt text with
    | Some n -> Token.Int_lit n
    | None -> error where "integer literal %s out of range" text

let lex_escape st where =
  if st.pos >= st.len then error where "unterminated escape";
  let c = st.src.[st.pos] in
  advance st;
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\x00'
  | c -> c (* a backslash, a quote or any other character: itself *)

let lex_char st where : Token.t =
  advance st; (* opening quote *)
  if st.pos >= st.len then error where "unterminated character literal";
  let c =
    match st.src.[st.pos] with
    | '\\' ->
      advance st;
      lex_escape st where
    | c ->
      advance st;
      c
  in
  if not (ahead_is st 0 '\'') then error where "unterminated character literal";
  advance st;
  Token.Char_lit c

let rec string_body st where buf =
  if st.pos >= st.len then error where "unterminated string literal";
  match st.src.[st.pos] with
  | '"' -> advance st
  | '\\' ->
    advance st;
    Buffer.add_char buf (lex_escape st where);
    string_body st where buf
  | c ->
    advance st;
    Buffer.add_char buf c;
    string_body st where buf

let lex_string st where : Token.t =
  advance st; (* opening quote *)
  let buf = Buffer.create 16 in
  string_body st where buf;
  Token.String_lit (Buffer.contents buf)

(* The one-character operators, each as its token's string; [""] for a
   character that starts no operator. *)
let operators1 : string array =
  let t = Array.make 256 "" in
  String.iter (fun c -> t.(Char.code c) <- String.make 1 c) "+-*/%=<>!.,;(){}[]?:&|^~";
  t

(* The operator at [st.pos], longest first: three characters, then two,
   then one. *)
let lex_operator st where : Token.t =
  let next = if st.pos + 1 < st.len then st.src.[st.pos + 1] else '\000' in
  let op =
    match st.src.[st.pos], next with
    | '<', '<' -> if ahead_is st 2 '=' then "<<=" else "<<"
    | '>', '>' -> if ahead_is st 2 '=' then ">>=" else ">>"
    | '=', '=' -> "=="
    | '!', '=' -> "!="
    | '<', '=' -> "<="
    | '>', '=' -> ">="
    | '&', '&' -> "&&"
    | '|', '|' -> "||"
    | '+', '+' -> "++"
    | '-', '-' -> "--"
    | '+', '=' -> "+="
    | '-', '=' -> "-="
    | '*', '=' -> "*="
    | '/', '=' -> "/="
    | '%', '=' -> "%="
    | '&', '=' -> "&="
    | '|', '=' -> "|="
    | '^', '=' -> "^="
    | c, _ ->
      (match operators1.(Char.code c) with
       | "" -> error where "unexpected character %C" c
       | op -> op)
  in
  st.pos <- st.pos + String.length op;
  Token.Op op

let lex_word st : Token.t =
  let start = st.pos in
  while st.pos < st.len && is_ident st.src.[st.pos] do advance st done;
  let name = String.sub st.src start (st.pos - start) in
  if Names.mem keyword_table name then Token.Kw name else Token.Ident name

let tokenize (src : string) : Token.spanned list =
  let st = { src; len = String.length src; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    skip_ws_and_comments st;
    let l = loc st in
    if st.pos >= st.len then List.rev ({ Token.tok = Eof; loc = l } :: acc)
    else
      let tok =
        match st.src.[st.pos] with
        | '0' .. '9' -> lex_number st l
        | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_word st
        | '\'' -> lex_char st l
        | '"' -> lex_string st l
        | _ -> lex_operator st l
      in
      go ({ Token.tok; loc = l } :: acc)
  in
  go []
