(* Recursive-descent parser for Ecode. *)

exception Error of string * Token.loc

let error loc fmt = Fmt.kstr (fun s -> raise (Error (s, loc))) fmt

type state = { mutable toks : Token.spanned list }

let peek st =
  match st.toks with
  | [] -> { Token.tok = Eof; loc = { line = 0; col = 0 } }
  | t :: _ -> t

let peek_tok st = (peek st).Token.tok

let next st =
  let t = peek st in
  (match st.toks with [] -> () | _ :: rest -> st.toks <- rest);
  t

let expect_op st op =
  let t = next st in
  match t.Token.tok with
  | Op o when o = op -> ()
  | tok -> error t.Token.loc "expected %S, got %a" op Token.pp tok

let eat_op st op =
  match peek_tok st with
  | Op o when o = op ->
    ignore (next st);
    true
  | _ -> false

let dtyp_of_kw = function
  | "int" | "long" -> Some Ast.Dint
  | "unsigned" -> Some Ast.Duint
  | "float" | "double" -> Some Ast.Dfloat
  | "char" -> Some Ast.Dchar
  | "bool" -> Some Ast.Dbool
  | "string" -> Some Ast.Dstring
  | _ -> None

(* --- expressions --------------------------------------------------------- *)

let assign_op_of = function
  | "=" -> Some Ast.Set
  | "+=" -> Some Ast.Add_eq
  | "-=" -> Some Ast.Sub_eq
  | "*=" -> Some Ast.Mul_eq
  | "/=" -> Some Ast.Div_eq
  | "%=" -> Some Ast.Mod_eq
  | _ -> None

(* The binary operators: precedence (1 binds loosest, 10 tightest) and
   node.  Every level is left associative. *)
let binop_of : string -> (int * Ast.binop) option = function
  | "||" -> Some (1, Or)
  | "&&" -> Some (2, And)
  | "|" -> Some (3, Bor)
  | "^" -> Some (4, Bxor)
  | "&" -> Some (5, Band)
  | "==" -> Some (6, Eq)
  | "!=" -> Some (6, Ne)
  | "<" -> Some (7, Lt)
  | "<=" -> Some (7, Le)
  | ">" -> Some (7, Gt)
  | ">=" -> Some (7, Ge)
  | "<<" -> Some (8, Shl)
  | ">>" -> Some (8, Shr)
  | "+" -> Some (9, Add)
  | "-" -> Some (9, Sub)
  | "*" -> Some (10, Mul)
  | "/" -> Some (10, Div)
  | "%" -> Some (10, Mod)
  | _ -> None

let rec parse_expr st : Ast.expr =
  (* assignment, right associative, lowest precedence *)
  let lhs = parse_cond st in
  match peek_tok st with
  | Op o ->
    (match assign_op_of o with
     | Some op ->
       let t = next st in
       let rhs = parse_expr st in
       { Ast.e = Assign (op, lhs, rhs); eloc = t.Token.loc }
     | None -> lhs)
  | _ -> lhs

and parse_cond st : Ast.expr =
  let c = parse_binary st 1 in
  if eat_op st "?" then begin
    let a = parse_expr st in
    expect_op st ":";
    let b = parse_cond st in
    { Ast.e = Cond (c, a, b); eloc = c.Ast.eloc }
  end
  else c

(* Precedence climbing: an operand, then every binary operator that binds
   at least [min_prec], each right operand parsed one level tighter. *)
and parse_binary st min_prec : Ast.expr = climb st min_prec (parse_unary st)

and climb st min_prec lhs : Ast.expr =
  match peek_tok st with
  | Op o ->
    (match binop_of o with
     | Some (prec, op) when prec >= min_prec ->
       let t = next st in
       let rhs = parse_binary st (prec + 1) in
       climb st min_prec { Ast.e = Binop (op, lhs, rhs); eloc = t.Token.loc }
     | Some _ | None -> lhs)
  | _ -> lhs

and parse_unary st : Ast.expr =
  let t = peek st in
  match t.Token.tok with
  | Op "-" ->
    ignore (next st);
    let e = parse_unary st in
    { Ast.e = Unop (Neg, e); eloc = t.Token.loc }
  | Op "!" ->
    ignore (next st);
    let e = parse_unary st in
    { Ast.e = Unop (Not, e); eloc = t.Token.loc }
  | Op "~" ->
    ignore (next st);
    let e = parse_unary st in
    { Ast.e = Unop (Bnot, e); eloc = t.Token.loc }
  | Op "+" ->
    ignore (next st);
    parse_unary st
  | Op "++" ->
    ignore (next st);
    let e = parse_unary st in
    { Ast.e = Incr (Pre_incr, e); eloc = t.Token.loc }
  | Op "--" ->
    ignore (next st);
    let e = parse_unary st in
    { Ast.e = Incr (Pre_decr, e); eloc = t.Token.loc }
  | _ -> parse_postfix st

and parse_postfix st : Ast.expr =
  let e = parse_primary st in
  let rec go e =
    let t = peek st in
    match t.Token.tok with
    | Op "." ->
      ignore (next st);
      let name =
        match next st with
        | { Token.tok = Ident s; _ } -> s
        | { Token.tok; loc } -> error loc "expected field name, got %a" Token.pp tok
      in
      go { Ast.e = Field (e, name); eloc = t.Token.loc }
    | Op "[" ->
      ignore (next st);
      let i = parse_expr st in
      expect_op st "]";
      go { Ast.e = Index (e, i); eloc = t.Token.loc }
    | Op "++" ->
      ignore (next st);
      go { Ast.e = Incr (Post_incr, e); eloc = t.Token.loc }
    | Op "--" ->
      ignore (next st);
      go { Ast.e = Incr (Post_decr, e); eloc = t.Token.loc }
    | _ -> e
  in
  go e

and parse_primary st : Ast.expr =
  let t = next st in
  let mk e = { Ast.e; eloc = t.Token.loc } in
  match t.Token.tok with
  | Int_lit n -> mk (Int_lit n)
  | Float_lit x -> mk (Float_lit x)
  | Char_lit c -> mk (Char_lit c)
  | String_lit s -> mk (String_lit s)
  | Kw "true" -> mk (Bool_lit true)
  | Kw "false" -> mk (Bool_lit false)
  | Ident name ->
    if eat_op st "(" then begin
      let args =
        match peek_tok st with
        | Op ")" -> []
        | _ ->
          let rec go acc =
            let a = parse_expr st in
            if eat_op st "," then go (a :: acc) else List.rev (a :: acc)
          in
          go []
      in
      expect_op st ")";
      mk (Call (name, args))
    end
    else mk (Ident name)
  | Kw (("int" | "unsigned" | "float" | "double" | "long" | "char" | "bool" | "string") as k) ->
    (* C-style cast written as a call: int(x), float(x), ... *)
    expect_op st "(";
    let a = parse_expr st in
    expect_op st ")";
    mk (Call (k, [ a ]))
  | Op "(" ->
    let e = parse_expr st in
    expect_op st ")";
    e
  | tok -> error t.Token.loc "expected expression, got %a" Token.pp tok

(* --- statements ---------------------------------------------------------- *)

let rec parse_stmt st : Ast.stmt =
  let t = peek st in
  let mk s = { Ast.s; sloc = t.Token.loc } in
  match t.Token.tok with
  | Op ";" ->
    ignore (next st);
    mk Empty
  | Op "{" ->
    ignore (next st);
    let rec go acc = if eat_op st "}" then List.rev acc else go (parse_stmt st :: acc) in
    mk (Block (go []))
  | Kw "if" ->
    ignore (next st);
    expect_op st "(";
    let c = parse_expr st in
    expect_op st ")";
    let then_ = parse_stmt st in
    let else_ =
      match peek_tok st with
      | Kw "else" ->
        ignore (next st);
        Some (parse_stmt st)
      | _ -> None
    in
    mk (If (c, then_, else_))
  | Kw "while" ->
    ignore (next st);
    expect_op st "(";
    let c = parse_expr st in
    expect_op st ")";
    mk (While (c, parse_stmt st))
  | Kw "do" ->
    ignore (next st);
    let body = parse_stmt st in
    (match next st with
     | { Token.tok = Kw "while"; _ } -> ()
     | { Token.tok; loc } -> error loc "expected 'while', got %a" Token.pp tok);
    expect_op st "(";
    let c = parse_expr st in
    expect_op st ")";
    expect_op st ";";
    mk (Do_while (body, c))
  | Kw "for" ->
    ignore (next st);
    expect_op st "(";
    let init =
      if eat_op st ";" then None
      else begin
        let s = parse_simple_stmt st in
        expect_op st ";";
        Some s
      end
    in
    let cond = match peek_tok st with Op ";" -> None | _ -> Some (parse_expr st) in
    expect_op st ";";
    let step = match peek_tok st with Op ")" -> None | _ -> Some (parse_expr st) in
    expect_op st ")";
    mk (For (init, cond, step, parse_stmt st))
  | Kw "switch" ->
    ignore (next st);
    expect_op st "(";
    let scrutinee = parse_expr st in
    expect_op st ")";
    expect_op st "{";
    (* parse label groups: (case N: | default:)+ stmts* *)
    let parse_label () =
      match next st with
      | { Token.tok = Kw "case"; _ } ->
        let v =
          match next st with
          | { Token.tok = Int_lit n; _ } -> n
          | { Token.tok = Char_lit c; _ } -> Char.code c
          | { Token.tok; loc } ->
            error loc "expected integer or character case label, got %a" Token.pp tok
        in
        expect_op st ":";
        `Case v
      | { Token.tok = Kw "default"; _ } ->
        expect_op st ":";
        `Default
      | { Token.tok; loc } -> error loc "expected 'case' or 'default', got %a" Token.pp tok
    in
    let at_label () =
      match peek_tok st with
      | Kw "case" | Kw "default" -> true
      | _ -> false
    in
    let rec arms acc =
      if eat_op st "}" then List.rev acc
      else begin
        let rec labels ls has_default =
          match parse_label () with
          | `Case v ->
            if at_label () then labels (v :: ls) has_default
            else (List.rev (v :: ls), has_default)
          | `Default ->
            if at_label () then labels ls true else (List.rev ls, true)
        in
        let ls, has_default = labels [] false in
        let rec body acc =
          match peek_tok st with
          | Kw ("case" | "default") | Op "}" -> List.rev acc
          | _ -> body (parse_stmt st :: acc)
        in
        let stmts = body [] in
        arms ({ Ast.labels = ls; has_default; body = stmts } :: acc)
      end
    in
    mk (Switch (scrutinee, arms []))
  | Kw "return" ->
    ignore (next st);
    let e = match peek_tok st with Op ";" -> None | _ -> Some (parse_expr st) in
    expect_op st ";";
    mk (Return e)
  | Kw "break" ->
    ignore (next st);
    expect_op st ";";
    mk Break
  | Kw "continue" ->
    ignore (next st);
    expect_op st ";";
    mk Continue
  | _ ->
    let s = parse_simple_stmt st in
    expect_op st ";";
    s

(* A declaration or an expression statement, without the trailing ';'
   (shared by plain statements and for-loop initialisers). *)
and parse_simple_stmt st : Ast.stmt =
  let t = peek st in
  match t.Token.tok with
  | Kw k when dtyp_of_kw k <> None && is_declaration st ->
    ignore (next st);
    let dt = Option.get (dtyp_of_kw k) in
    let rec go acc =
      let name =
        match next st with
        | { Token.tok = Ident s; _ } -> s
        | { Token.tok; loc } -> error loc "expected variable name, got %a" Token.pp tok
      in
      let init = if eat_op st "=" then Some (parse_expr st) else None in
      let acc = { Ast.dname = name; dinit = init } :: acc in
      if eat_op st "," then go acc else List.rev acc
    in
    { Ast.s = Decl (dt, go []); sloc = t.Token.loc }
  | _ -> { Ast.s = Expr (parse_expr st); sloc = t.Token.loc }

(* Distinguish a declaration [int x ...] from a cast expression [int (x)]. *)
and is_declaration st =
  match st.toks with
  | _ :: { Token.tok = Ident _; _ } :: _ -> true
  | _ -> false

(* At the top level, [type ident (] starts a function definition; anything
   else is a statement of the main body. *)
let looks_like_fundef st =
  match st.toks with
  | { Token.tok = Kw k; _ } :: { Token.tok = Ident _; _ } :: { Token.tok = Op "("; _ } :: _
    ->
    k = "void" || dtyp_of_kw k <> None
  | _ -> false

let parse_fundef st : Ast.fundef =
  let t = next st in
  let fret =
    match t.Token.tok with
    | Kw "void" -> None
    | Kw k ->
      (match dtyp_of_kw k with
       | Some d -> Some d
       | None -> error t.Token.loc "expected a return type")
    | _ -> error t.Token.loc "expected a return type"
  in
  let fdname =
    match next st with
    | { Token.tok = Ident s; _ } -> s
    | { Token.tok; loc } -> error loc "expected function name, got %a" Token.pp tok
  in
  expect_op st "(";
  let rec params acc =
    match peek_tok st with
    | Op ")" ->
      ignore (next st);
      List.rev acc
    | _ ->
      let pt =
        match next st with
        | { Token.tok = Kw k; loc } ->
          (match dtyp_of_kw k with
           | Some d -> d
           | None -> error loc "expected a parameter type")
        | { Token.tok; loc } -> error loc "expected a parameter type, got %a" Token.pp tok
      in
      let pname =
        match next st with
        | { Token.tok = Ident s; _ } -> s
        | { Token.tok; loc } -> error loc "expected parameter name, got %a" Token.pp tok
      in
      let acc = (pt, pname) :: acc in
      if eat_op st "," then params acc
      else begin
        expect_op st ")";
        List.rev acc
      end
  in
  let fparams = params [] in
  let body =
    match parse_stmt st with
    | { Ast.s = Block ss; _ } -> ss
    | { Ast.sloc; _ } -> error sloc "function body must be a { block }"
  in
  { Ast.fret; fdname; fparams; fbody = body; floc = t.Token.loc }

let parse_program (src : string) : (Ast.prog, string) result =
  try
    let st = { toks = Lexer.tokenize src } in
    let rec go funs stmts =
      match peek_tok st with
      | Eof -> { Ast.funs = List.rev funs; main = List.rev stmts }
      | _ ->
        if looks_like_fundef st then go (parse_fundef st :: funs) stmts
        else go funs (parse_stmt st :: stmts)
    in
    Ok (go [] [])
  with
  | Error (msg, loc) -> Result.Error (Fmt.str "parse error at %a: %s" Token.pp_loc loc msg)
  | Lexer.Error (msg, loc) ->
    Result.Error (Fmt.str "lexical error at %a: %s" Token.pp_loc loc msg)
