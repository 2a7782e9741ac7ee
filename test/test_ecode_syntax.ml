(* Lexer, parser and typechecker tests for the Ecode language. *)

open Pbio

let parse_ok src =
  match Ecode.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" e

let check_err ~params src =
  match Ecode.compile ~params src with
  | Ok _ -> Alcotest.failf "expected type error for %S" src
  | Error _ -> ()

let check_ok ~params src : unit =
  match Ecode.compile ~params src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compile failed for %S: %s" src e

let test_lexer_tokens () =
  let toks = Ecode.Lexer.tokenize "x += 1; /* c */ y++ // line\n\"s\\n\" 'a' 1.5e2 <= >=" in
  let kinds = List.map (fun (s : Ecode.Token.spanned) -> s.Ecode.Token.tok) toks in
  Alcotest.(check bool) "has ident" true (List.mem (Ecode.Token.Ident "x") kinds);
  Alcotest.(check bool) "has +=" true (List.mem (Ecode.Token.Op "+=") kinds);
  Alcotest.(check bool) "has ++" true (List.mem (Ecode.Token.Op "++") kinds);
  Alcotest.(check bool) "string escape" true (List.mem (Ecode.Token.String_lit "s\n") kinds);
  Alcotest.(check bool) "char" true (List.mem (Ecode.Token.Char_lit 'a') kinds);
  Alcotest.(check bool) "float exp" true (List.mem (Ecode.Token.Float_lit 150.0) kinds);
  Alcotest.(check bool) "<=" true (List.mem (Ecode.Token.Op "<=") kinds)

let test_lexer_errors () =
  let expect_lex_error src =
    try
      ignore (Ecode.Lexer.tokenize src);
      Alcotest.failf "expected lexical error for %S" src
    with Ecode.Lexer.Error _ -> ()
  in
  expect_lex_error "\"unterminated";
  expect_lex_error "'x";
  expect_lex_error "/* unterminated";
  expect_lex_error "int x = $;"

(* Every operator, both comment kinds, escapes, keywords next to
   identifiers, and int, float and exponent literals: each token with its
   column, per source line. *)
let test_lexer_pinned () =
  let src =
    "/* block\n   comment */ int intx=42; // line\n\
     float f=1.5e3+2.25+7e-2+3E+1+6e2+10;\n\
     char c='\\n'; string s=\"a\\tb\\\"c\\\\d\\0\\r\\q\"; c='\\''; c='\\\\';\n\
     a+b-c*d/e%f=g<h>i!j.k,l;(){}[]?:&|^~\n\
     a==b!=c<=d>=e&&f||g++h--i+=j-=k*=l/=m%=n<<o>>p&=q|=r^=s<<=t>>=u\n\
     returnx ifelse int1 _if If if(x)else\n\
     1.x 3..4 007"
  in
  let show : Ecode.Token.t -> string = function
    | Ident s | Op s -> s
    | Kw s -> "kw:" ^ s
    | Int_lit n -> Printf.sprintf "int:%d" n
    | Float_lit x -> Printf.sprintf "float:%g" x
    | Char_lit c -> Printf.sprintf "char:%C" c
    | String_lit s -> Printf.sprintf "string:%S" s
    | Eof -> "eof"
  in
  let toks = Ecode.Lexer.tokenize src in
  let line l =
    String.concat "  "
      (List.filter_map
         (fun (t : Ecode.Token.spanned) ->
            if t.loc.line = l then Some (Printf.sprintf "%d %s" t.loc.col (show t.tok))
            else None)
         toks)
  in
  List.iter
    (fun (l, want) -> Alcotest.(check string) (Printf.sprintf "line %d" l) want (line l))
    [
      (1, "");
      (2, "15 kw:int  19 intx  23 =  24 int:42  26 ;");
      (3, "1 kw:float  7 f  8 =  9 float:1500  14 +  15 float:2.25  19 +  20 float:0.07  24 +  \
           25 float:30  29 +  30 float:600  33 +  34 int:10  36 ;");
      (4, "1 kw:char  6 c  7 =  8 char:'\\n'  12 ;  14 kw:string  21 s  22 =  \
           23 string:\"a\\tb\\\"c\\\\d\\000\\rq\"  41 ;  43 c  44 =  45 char:'\\''  49 ;  \
           51 c  52 =  53 char:'\\\\'  57 ;");
      (5, "1 a  2 +  3 b  4 -  5 c  6 *  7 d  8 /  9 e  10 %  11 f  12 =  13 g  14 <  15 h  \
           16 >  17 i  18 !  19 j  20 .  21 k  22 ,  23 l  24 ;  25 (  26 )  27 {  28 }  \
           29 [  30 ]  31 ?  32 :  33 &  34 |  35 ^  36 ~");
      (6, "1 a  2 ==  4 b  5 !=  7 c  8 <=  10 d  11 >=  13 e  14 &&  16 f  17 ||  19 g  \
           20 ++  22 h  23 --  25 i  26 +=  28 j  29 -=  31 k  32 *=  34 l  35 /=  37 m  \
           38 %=  40 n  41 <<  43 o  44 >>  46 p  47 &=  49 q  50 |=  52 r  53 ^=  55 s  \
           56 <<=  59 t  60 >>=  63 u");
      (7, "1 returnx  9 ifelse  16 int1  21 _if  25 If  28 kw:if  30 (  31 x  32 )  \
           33 kw:else");
      (8, "1 int:1  2 .  3 x  5 int:3  6 .  7 .  8 int:4  10 int:7  13 eof");
    ]

(* Lexical errors: message and location. *)
let test_lexer_error_messages () =
  List.iter
    (fun (src, want) ->
       let got =
         match Ecode.Lexer.tokenize src with
         | _ -> "ok"
         | exception Ecode.Lexer.Error (m, l) -> Printf.sprintf "%d:%d %s" l.line l.col m
       in
       Alcotest.(check string) src want got)
    [
      ("x /* unterminated", "1:3 unterminated comment");
      ("a /*/ b", "1:3 unterminated comment");
      ("x = \"abc", "1:5 unterminated string literal");
      ("\"\\", "1:1 unterminated escape");
      ("x = 'x", "1:5 unterminated character literal");
      ("''", "1:1 unterminated character literal");
      ("'ab'", "1:1 unterminated character literal");
      ("'\\", "1:1 unterminated escape");
      ("int x = $;", "1:9 unexpected character '$'");
      ("a\n  @", "2:3 unexpected character '@'");
      ("x = 99999999999999999999;", "1:5 integer literal 99999999999999999999 out of range");
      ("x = 4611686018427387904;", "1:5 integer literal 4611686018427387904 out of range");
      ("x = 1.5e;", "1:5 malformed float literal 1.5e");
      ("x = 1e+;", "1:5 malformed float literal 1e+");
      ("/* a */\n  y = 2E-", "2:7 malformed float literal 2E-");
    ];
  (* the largest int and a float past the largest float still lex *)
  let toks = Ecode.Lexer.tokenize "4611686018427387903 1e99999" in
  Alcotest.(check (list string)) "max_int, infinity"
    [ "integer 4611686018427387903"; "float inf"; "end of input" ]
    (List.map (fun (t : Ecode.Token.spanned) -> Fmt.str "%a" Ecode.Token.pp t.tok) toks)

let test_parser_statements () =
  ignore (parse_ok "int x = 1, y; x = y;");
  ignore (parse_ok "if (x) y = 1; else { y = 2; z = 3; }");
  ignore (parse_ok "for (i = 0; i < 10; i++) { s = s + 1; }");
  ignore (parse_ok "for (;;) break;");
  ignore (parse_ok "while (a && b || !c) continue;");
  ignore (parse_ok "do { x--; } while (x > 0);");
  ignore (parse_ok "return;");
  ignore (parse_ok "return x + 1;");
  ignore (parse_ok ";;;");
  ignore (parse_ok "x = a ? b : c;");
  ignore (parse_ok "v.field[3].sub = f(1, 2) % 3;")

(* Parse errors: message and location. *)
let test_parser_errors () =
  List.iter
    (fun (src, want) ->
       let got = match Ecode.parse src with Ok _ -> "ok" | Error e -> e in
       Alcotest.(check string) src want got)
    [
      ("int = 3;", "parse error at 1:5: expected \"(\", got \"=\"");
      ("x = ;", "parse error at 1:5: expected expression, got \";\"");
      ("if x) y = 1;", "parse error at 1:4: expected \"(\", got identifier \"x\"");
      ("for (i = 0; i < 10; i++ { }", "parse error at 1:25: expected \")\", got \"{\"");
      ("x = (1 + 2;", "parse error at 1:11: expected \")\", got \";\"");
      ("x = a ? b;", "parse error at 1:10: expected \":\", got \";\"");
      ("do { } while (1)", "parse error at 1:17: expected \";\", got end of input");
      ("x = a + ;", "parse error at 1:9: expected expression, got \";\"");
      ("x = a * (b - ) / c;", "parse error at 1:14: expected expression, got \")\"");
      ("x = a || b &&\n  ;", "parse error at 2:3: expected expression, got \";\"");
      ("x = a b;", "parse error at 1:7: expected \";\", got identifier \"b\"");
      ("x = a == = b;", "parse error at 1:10: expected expression, got \"=\"");
    ]

let test_precedence_shape () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  match (parse_ok "x = 1 + 2 * 3;").Ecode.Ast.main with
  | [ { Ecode.Ast.s = Expr { e = Assign (_, _, { e = Binop (Add, _, rhs); _ }); _ }; _ } ] ->
    (match rhs.Ecode.Ast.e with
     | Binop (Mul, _, _) -> ()
     | _ -> Alcotest.fail "expected multiplication on the right")
  | _ -> Alcotest.fail "unexpected parse shape"

(* What the parser builds, pinned by the fully parenthesised [Ecode.Pp]
   text.  The expected shapes come from C's table here, not from the
   parser: a later level binds tighter, and every level is left
   associative. *)
let binary_levels =
  [ [ "||" ]; [ "&&" ]; [ "|" ]; [ "^" ]; [ "&" ]; [ "=="; "!=" ]; [ "<"; "<="; ">"; ">=" ];
    [ "<<"; ">>" ]; [ "+"; "-" ]; [ "*"; "/"; "%" ] ]

let level op =
  let rec go i = function
    | ops :: rest -> if List.mem op ops then i else go (i + 1) rest
    | [] -> Alcotest.failf "no level for %s" op
  in
  go 0 binary_levels

let reprint src = Ecode.Pp.program_to_string (parse_ok src)

let test_parser_shapes_pinned () =
  let ops = List.concat binary_levels in
  (* every ordered pair, [a op op' c] with op = op' included *)
  List.iter
    (fun o1 ->
       List.iter
         (fun o2 ->
            let src = Printf.sprintf "a %s b %s c;" o1 o2 in
            let want =
              if level o1 >= level o2 then Printf.sprintf "((a %s b) %s c);" o1 o2
              else Printf.sprintf "(a %s (b %s c));" o1 o2
            in
            Alcotest.(check string) src want (reprint src))
         ops)
    ops;
  List.iter
    (fun (src, want) -> Alcotest.(check string) src want (reprint src))
    [
      (* unary and postfix operators under binary ones *)
      ("-a * b;", "((-a) * b);");
      ("a * -b;", "(a * (-b));");
      ("!a && b;", "((!a) && b);");
      ("~a | b ^ c;", "((~a) | (b ^ c));");
      ("a - -b;", "(a - (-b));");
      ("- - a;", "(-(-a));");
      ("+a * b;", "(a * b);");
      ("++a * b;", "((++a) * b);");
      ("a++ + b;", "((a++) + b);");
      ("a-- - --b;", "((a--) - (--b));");
      ("-a.f[i] * b;", "((-a.f[i]) * b);");
      ("!f(b + c) == d;", "((!f((b + c))) == d);");
      ("a[i + j] << b.c >> 1;", "((a[(i + j)] << b.c) >> 1);");
      ("(a + b) * c;", "((a + b) * c);");
      ("a * (b + c) % d;", "((a * (b + c)) % d);");
      ("x = int(a) + float(b) * 2;", "(x = (int(a) + (float(b) * 2)));");
      (* four levels at once, in both directions *)
      ("a || b && c | d ^ e & f == g < h << i + j * k;",
       "(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))))))))));");
      ("a * b + c << d < e == f & g ^ h | i && j || k;",
       "((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k);");
      (* ?: and assignment chains *)
      ("a = b = c;", "(a = (b = c));");
      ("a += b -= c *= d /= e %= f;", "(a += (b -= (c *= (d /= (e %= f)))));");
      ("x = a ? b : c;", "(x = (a ? b : c));");
      ("a ? b : c ? d : e;", "(a ? b : (c ? d : e));");
      ("a ? b ? c : d : e;", "(a ? (b ? c : d) : e);");
      ("a || b ? c + d : e && f;", "((a || b) ? (c + d) : (e && f));");
      ("a ? b = c : d;", "(a ? (b = c) : d);");
      ("x = a < b ? a : b;", "(x = ((a < b) ? a : b));");
      ("a ? b : c = d;", "((a ? b : c) = d);");
    ]

(* --- typechecking ----------------------------------------------------------- *)

let msg = Ptype_dsl.format_of_string_exn "format Msg { int load; float ratio; string tag; }"
let params = [ ("m", Ptype.Record msg) ]

let test_typecheck_ok () =
  (check_ok ~params "int x; x = m.load + 1; m.ratio = x / 2.0;");
  (check_ok ~params "m.tag = m.tag + \"!\" + m.load;");
  (check_ok ~params "bool b = m.load > 0 && m.ratio < 1.0;");
  (check_ok ~params "m.load = int(m.ratio * 10.0);")

let test_typecheck_errors () =
  check_err ~params "x = 1;"; (* unknown variable *)
  check_err ~params "m.nope = 1;"; (* unknown field *)
  check_err ~params "m.load.x = 1;"; (* field of non-record *)
  check_err ~params "m.load[0] = 1;"; (* index of non-array *)
  check_err ~params "m.tag = 3;"; (* int to string without cast *)
  check_err ~params "int x = \"s\";"; (* string to int *)
  check_err ~params "if (m.tag) m.load = 1;"; (* string condition *)
  check_err ~params "1 = 2;"; (* not an lvalue *)
  check_err ~params "m.tag++;"; (* ++ on string *)
  check_err ~params "int x; int x;"; (* redeclaration in same scope *)
  check_err ~params "m.load = strlen(3);"; (* strlen of int *)
  check_err ~params "m.load = min(1);"; (* arity *)
  check_err ~params "m.load = nosuchfn(1);"

let test_scoping () =
  (* a block-local variable is invisible outside its block *)
  check_err ~params "{ int x = 1; } m.load = x;";
  (* shadowing in an inner scope is fine *)
  (check_ok ~params "int x = 1; { int x = 2; m.load = x; }")

let test_record_assignment_shapes () =
  let a = Ptype_dsl.format_of_string_exn "record P { int x; int y; } format A { P p; P q; }" in
  let params = [ ("a", Ptype.Record a) ] in
  (check_ok ~params "a.p = a.q;");
  let b =
    Ptype_dsl.format_of_string_exn
      "record P { int x; int y; } record Q { int x; } format B { P p; Q q; }"
  in
  let params_b = [ ("b", Ptype.Record b) ] in
  check_err ~params:params_b "b.p = b.q;" (* different shapes *)

(* Pretty-printing: printing a parsed program and re-parsing it reaches a
   fixed point, and the reprint executes identically. *)
let corpus =
  [
    Echo.Wire_formats.response_v2_to_v1_code; (* Figure 5's rollback *)
    Echo.Wire_formats.event_v2_to_v1_code;
    B2b.Formats.retail_to_supplier_order_code;
    B2b.Formats.supplier_to_retail_status_code;
    {| int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
       void hop(int a) { if (a > 3) return; }
       int i, acc = 0;
       for (i = 0; i < 10; i++) { acc += fib(i); if (acc > 50) break; }
       do { acc--; } while (acc > 40);
       switch (acc % 3) { case 0: acc = 1; case 1: acc = 2; break; default: acc = 3; }
       string s = "q\"x" + 'y' + 1.5 + true;
       acc = (acc > 0) ? -acc : ~acc; |};
    (* a lineage head hop, as loadgen's population ships it *)
    "old.kind = new.kind;\nold.tag = new.g2752;\nold.count = new.count;\n\
     old.g8974 = new.g8974;\nold.gauge = new.gauge;\n";
  ]

let test_pp_fixed_point () =
  List.iter
    (fun src ->
       let p1 = parse_ok src in
       let s1 = Ecode.Pp.program_to_string p1 in
       let p2 =
         match Ecode.parse s1 with
         | Ok p -> p
         | Error e -> Alcotest.failf "reprint does not parse: %s\n%s" e s1
       in
       let s2 = Ecode.Pp.program_to_string p2 in
       Alcotest.(check string) "print . parse fixed point" s1 s2)
    corpus

let test_pp_preserves_semantics () =
  (* run the Figure 5 transformation from its pretty-printed source *)
  let src = Echo.Wire_formats.response_v2_to_v1_code in
  let printed = Ecode.Pp.program_to_string (parse_ok src) in
  let original =
    Helpers.check_ok
      (Ecode.compile_xform ~src:Helpers.response_v2 ~dst:Helpers.response_v1 src)
  in
  let reprinted =
    Helpers.check_ok
      (Ecode.compile_xform ~src:Helpers.response_v2 ~dst:Helpers.response_v1 printed)
  in
  let v = Helpers.sample_v2 9 in
  Alcotest.check Helpers.value "same result" (original v) (reprinted v)

let suite =
  [
    Alcotest.test_case "lexer: token kinds" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer: errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser: statement forms" `Quick test_parser_statements;
    Alcotest.test_case "parser: errors" `Quick test_parser_errors;
    Alcotest.test_case "parser: precedence" `Quick test_precedence_shape;
    Alcotest.test_case "parser: shapes pinned" `Quick test_parser_shapes_pinned;
    Alcotest.test_case "typecheck: accepts valid programs" `Quick test_typecheck_ok;
    Alcotest.test_case "typecheck: rejects invalid programs" `Quick test_typecheck_errors;
    Alcotest.test_case "typecheck: scoping" `Quick test_scoping;
    Alcotest.test_case "typecheck: record assignment" `Quick test_record_assignment_shapes;
    Alcotest.test_case "pp: fixed point on corpus" `Quick test_pp_fixed_point;
    Alcotest.test_case "pp: preserves semantics" `Quick test_pp_preserves_semantics;
    Alcotest.test_case "lexer: tokens and locations pinned" `Quick test_lexer_pinned;
    Alcotest.test_case "lexer: error messages and locations" `Quick test_lexer_error_messages;
  ]
