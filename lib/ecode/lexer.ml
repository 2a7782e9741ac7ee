(* Hand-written lexer for Ecode.  Characters are read with an explicit end
   check and matched directly; keywords and operators come from tables
   built once, so lexing allocates only the tokens it returns. *)

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

let advance st =
  if ahead_is st 0 '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

(* Multi-character operators, longest first. *)
let operators3 = [ "<<="; ">>=" ]

let operators2 =
  [ "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "+="; "-="; "*="; "/="; "%=";
    "<<"; ">>"; "&="; "|="; "^=" ]

let operators1 =
  [ "+"; "-"; "*"; "/"; "%"; "="; "<"; ">"; "!"; "."; ","; ";"; "("; ")"; "{"; "}";
    "["; "]"; "?"; ":"; "&"; "|"; "^"; "~" ]

(* The operators by first character, longest first. *)
let operator_table : string list array =
  let t = Array.make 256 [] in
  List.iter
    (fun op ->
       let i = Char.code op.[0] in
       t.(i) <- t.(i) @ [ op ])
    (operators3 @ operators2 @ operators1);
  t

module Names = Hashtbl.Make (String)

let keyword_table : unit Names.t =
  let t = Names.create 32 in
  List.iter (fun k -> Names.replace t k ()) Token.keywords;
  t

let skip_ws_and_comments st =
  let rec go () =
    if st.pos < st.len then
      match st.src.[st.pos] with
      | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        go ()
      | '/' when ahead_is st 1 '/' ->
        while st.pos < st.len && st.src.[st.pos] <> '\n' do advance st done;
        go ()
      | '/' when ahead_is st 1 '*' ->
        let start = loc st in
        advance st;
        advance st;
        while not (ahead_is st 0 '*' && ahead_is st 1 '/') do
          if st.pos >= st.len then error start "unterminated comment";
          advance st
        done;
        advance st;
        advance st;
        go ()
      | _ -> ()
  in
  go ()

let skip_digits st =
  while st.pos < st.len && is_digit st.src.[st.pos] do advance st done

let lex_number st : Token.t =
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
    end;
    Token.Float_lit (float_of_string (String.sub st.src start (st.pos - start)))
  end
  else Token.Int_lit (int_of_string (String.sub st.src start (st.pos - start)))

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

let lex_char st : Token.t =
  let where = loc st in
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

let lex_string st : Token.t =
  let where = loc st in
  advance st; (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then error where "unterminated string literal";
    match st.src.[st.pos] with
    | '"' -> advance st
    | '\\' ->
      advance st;
      Buffer.add_char buf (lex_escape st where);
      go ()
    | c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Token.String_lit (Buffer.contents buf)

let starts_with st op =
  let n = String.length op in
  let rec eq i = i >= n || (st.src.[st.pos + i] = op.[i] && eq (i + 1)) in
  st.pos + n <= st.len && eq 0

let lex_operator st : Token.t =
  let rec first = function
    | op :: rest -> if starts_with st op then op else first rest
    | [] -> error (loc st) "unexpected character %C" st.src.[st.pos]
  in
  let op = first operator_table.(Char.code st.src.[st.pos]) in
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
        | c when is_digit c -> lex_number st
        | c when is_ident_start c -> lex_word st
        | '\'' -> lex_char st
        | '"' -> lex_string st
        | _ -> lex_operator st
      in
      go ({ Token.tok; loc = l } :: acc)
  in
  go []
