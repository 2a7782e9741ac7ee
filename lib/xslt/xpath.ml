module Xml = Xmlkit.Xml

(* An XPath 1.0 subset: location paths over child/self/descendant axes with
   attribute and text() tests, plus the expression forms XSLT conditionals
   need (comparisons, boolean connectives, count(), position(), last(),
   not(), concat(), string literals and numbers).

   No parent axis: the engine tracks ancestors itself, and the stylesheets
   this repo ships never look upward. *)

exception Parse_error of string

let parse_error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type test =
  | Name of string
  | Any
  | Text_test
  | Attr of string
  | Self_test
  | Descendants (* the // shorthand: descendant-or-self::node() *)

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
  | Name_fn (* name() of the context node *)
  | Arith of aop * expr * expr
  | Round of expr
  | Var of string (* $name: an xsl:variable binding *)

and cmp = Eq | Ne | Lt | Le | Gt | Ge

and aop = Aadd | Asub | Amul | Adiv | Amod

(* --- lexer ---------------------------------------------------------------- *)

type token =
  | Tname of string
  | Tlit of string
  | Tnum of float
  | Top of string
  | Teof

let tokenize (src : string) : token list =
  let n = String.length src in
  let out = ref [] in
  let is_name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let is_name c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.' in
  let is_digit c = c >= '0' && c <= '9' in
  let rec go i =
    if i >= n then out := Teof :: !out
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
        out := Top "//" :: !out;
        go (i + 2)
      | ('/' | '[' | ']' | '(' | ')' | '@' | '*' | ',' | '.' | '+' | '-' | '$') as c ->
        out := Top (String.make 1 c) :: !out;
        go (i + 1)
      | '!' when i + 1 < n && src.[i + 1] = '=' ->
        out := Top "!=" :: !out;
        go (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '=' ->
        out := Top "<=" :: !out;
        go (i + 2)
      | '>' when i + 1 < n && src.[i + 1] = '=' ->
        out := Top ">=" :: !out;
        go (i + 2)
      | ('=' | '<' | '>') as c ->
        out := Top (String.make 1 c) :: !out;
        go (i + 1)
      | ('"' | '\'') as q ->
        let close =
          match String.index_from_opt src (i + 1) q with
          | Some j -> j
          | None -> parse_error "unterminated literal in %S" src
        in
        out := Tlit (String.sub src (i + 1) (close - i - 1)) :: !out;
        go (close + 1)
      | c when is_digit c ->
        let rec num j = if j < n && (is_digit src.[j] || src.[j] = '.') then num (j + 1) else j in
        let j = num i in
        out := Tnum (float_of_string (String.sub src i (j - i))) :: !out;
        go j
      | c when is_name_start c ->
        let rec name j = if j < n && is_name src.[j] then name (j + 1) else j in
        let j = name i in
        out := Tname (String.sub src i (j - i)) :: !out;
        go j
      | c -> parse_error "unexpected character %C in %S" c src
  in
  go 0;
  List.rev !out

(* --- parser ---------------------------------------------------------------- *)

type ps = { mutable toks : token list }

let peek ps = match ps.toks with [] -> Teof | t :: _ -> t

let next ps =
  let t = peek ps in
  (match ps.toks with [] -> () | _ :: r -> ps.toks <- r);
  t

let expect ps op =
  match next ps with
  | Top o when o = op -> ()
  | _ -> parse_error "expected %S" op

let rec parse_expr ps : expr = parse_or ps

and parse_or ps =
  let a = parse_and ps in
  match peek ps with
  | Tname "or" ->
    ignore (next ps);
    Or (a, parse_or ps)
  | _ -> a

and parse_and ps =
  let a = parse_cmp ps in
  match peek ps with
  | Tname "and" ->
    ignore (next ps);
    And (a, parse_and ps)
  | _ -> a

and parse_cmp ps =
  let a = parse_additive ps in
  match peek ps with
  | Top "=" -> ignore (next ps); Cmp (Eq, a, parse_additive ps)
  | Top "!=" -> ignore (next ps); Cmp (Ne, a, parse_additive ps)
  | Top "<" -> ignore (next ps); Cmp (Lt, a, parse_additive ps)
  | Top "<=" -> ignore (next ps); Cmp (Le, a, parse_additive ps)
  | Top ">" -> ignore (next ps); Cmp (Gt, a, parse_additive ps)
  | Top ">=" -> ignore (next ps); Cmp (Ge, a, parse_additive ps)
  | _ -> a

and parse_additive ps =
  let rec go a =
    match peek ps with
    | Top "+" -> ignore (next ps); go (Arith (Aadd, a, parse_multiplicative ps))
    | Top "-" -> ignore (next ps); go (Arith (Asub, a, parse_multiplicative ps))
    | _ -> a
  in
  go (parse_multiplicative ps)

and parse_multiplicative ps =
  let rec go a =
    match peek ps with
    | Top "*" -> ignore (next ps); go (Arith (Amul, a, parse_unary ps))
    | Tname "div" -> ignore (next ps); go (Arith (Adiv, a, parse_unary ps))
    | Tname "mod" -> ignore (next ps); go (Arith (Amod, a, parse_unary ps))
    | _ -> a
  in
  go (parse_unary ps)

and parse_unary ps =
  match peek ps with
  | Top "-" ->
    ignore (next ps);
    Arith (Asub, Number 0.0, parse_unary ps)
  | Top "$" ->
    ignore (next ps);
    (match next ps with
     | Tname n -> Var n
     | _ -> parse_error "expected a variable name after $")
  | _ -> parse_primary ps

and parse_primary ps : expr =
  match peek ps with
  | Tlit s -> ignore (next ps); Literal s
  | Tnum x -> ignore (next ps); Number x
  | Top "(" ->
    ignore (next ps);
    let e = parse_expr ps in
    expect ps ")";
    e
  | Tname fn when (match ps.toks with _ :: Top "(" :: _ -> true | _ -> false) ->
    ignore (next ps);
    ignore (next ps); (* '(' *)
    (match fn with
     | "not" ->
       let e = parse_expr ps in
       expect ps ")";
       Not e
     | "count" ->
       let p = parse_path ps in
       expect ps ")";
       Count p
     | "position" -> expect ps ")"; Position
     | "last" -> expect ps ")"; Last
     | "true" -> expect ps ")"; True_
     | "false" -> expect ps ")"; False_
     | "name" -> expect ps ")"; Name_fn
     | "round" ->
       let e = parse_expr ps in
       expect ps ")";
       Round e
     | "floor" ->
       let e = parse_expr ps in
       expect ps ")";
       Arith (Asub, Round (Arith (Asub, e, Number 0.5)), Number 0.0)
     | "concat" ->
       let rec args acc =
         let e = parse_expr ps in
         match next ps with
         | Top "," -> args (e :: acc)
         | Top ")" -> List.rev (e :: acc)
         | _ -> parse_error "expected ',' or ')' in concat()"
       in
       Concat (args [])
     | _ -> parse_error "unknown XPath function %S" fn)
  | _ -> Path (parse_path ps)

and parse_path ps : path =
  let absolute, first_desc =
    match peek ps with
    | Top "/" -> ignore (next ps); (true, false)
    | Top "//" -> ignore (next ps); (true, true)
    | _ -> (false, false)
  in
  let rec steps acc =
    let step = parse_step ps in
    let acc = step :: acc in
    match peek ps with
    | Top "/" ->
      ignore (next ps);
      steps acc
    | Top "//" ->
      ignore (next ps);
      steps ({ test = Descendants; preds = [] } :: acc)
    | _ -> List.rev acc
  in
  (* An absolute bare "/" selects the root. *)
  let no_step =
    match peek ps with
    | Tname _ | Top "@" | Top "*" | Top "." -> false
    | _ -> true
  in
  if absolute && no_step then { absolute; steps = [] }
  else begin
    let steps = steps [] in
    let steps = if first_desc then { test = Descendants; preds = [] } :: steps else steps in
    { absolute; steps }
  end

and parse_step ps : step =
  let test =
    match next ps with
    | Top "*" -> Any
    | Top "." -> Self_test
    | Top "@" ->
      (match next ps with
       | Tname n -> Attr n
       | Top "*" -> Attr "*"
       | _ -> parse_error "expected attribute name after @")
    | Tname "text" when peek ps = Top "(" ->
      ignore (next ps);
      expect ps ")";
      Text_test
    | Tname n -> Name n
    | _ -> parse_error "expected a path step"
  in
  let rec preds acc =
    match peek ps with
    | Top "[" ->
      ignore (next ps);
      let e = parse_expr ps in
      expect ps "]";
      preds (e :: acc)
    | _ -> List.rev acc
  in
  { test; preds = preds [] }

let path_of_string (src : string) : path =
  let ps = { toks = tokenize src } in
  let p = parse_path ps in
  if peek ps <> Teof then parse_error "trailing tokens in path %S" src;
  p

let expr_of_string (src : string) : expr =
  let ps = { toks = tokenize src } in
  let e = parse_expr ps in
  if peek ps <> Teof then parse_error "trailing tokens in expression %S" src;
  e

(* --- evaluation ------------------------------------------------------------ *)

(* Items flowing through path evaluation: tree nodes (carrying their
   ancestor tag chain, nearest first — the XSLT engine matches patterns
   against it) or attribute values. *)
type item =
  | Node of Xml.t * string list
  | Attr_item of string * string (* name, value *)

type ctx = {
  item : item;
  position : int; (* 1-based *)
  size : int;
  root : Xml.t;
  vars : (string * string) list; (* xsl:variable bindings, innermost first *)
}

let string_of_item = function
  | Node (n, _) -> Xml.text_content n
  | Attr_item (_, v) -> v

(* Ancestor chain for the children of node [n] whose own chain is [ancs].
   The synthetic document node does not appear in ancestor chains. *)
let child_ancestors (n : Xml.t) (ancs : string list) : string list =
  match n with
  | Xml.Element e when e.tag <> "#document" -> e.tag :: ancs
  | Xml.Element _ | Xml.Text _ -> ancs

let document_node (root : Xml.t) : item =
  Node (Xml.Element { tag = "#document"; attrs = []; children = [ root ] }, [])

let rec descendants_or_self (n : Xml.t) (ancs : string list) : item list =
  Node (n, ancs)
  :: List.concat_map
    (fun c -> descendants_or_self c (child_ancestors n ancs))
    (Xml.children n)

let children_items n ancs =
  let ancs' = child_ancestors n ancs in
  List.map (fun c -> Node (c, ancs')) (Xml.children n)

let apply_test (test : test) (items : item list) : item list =
  match test with
  | Self_test -> items
  | Descendants ->
    List.concat_map
      (function
        | Node (n, ancs) -> descendants_or_self n ancs
        | Attr_item _ -> [])
      items
  | Name name ->
    List.concat_map
      (function
        | Node (n, ancs) ->
          List.filter
            (function
              | Node (Xml.Element e, _) -> e.tag = name
              | Node (Xml.Text _, _) | Attr_item _ -> false)
            (children_items n ancs)
        | Attr_item _ -> [])
      items
  | Any ->
    List.concat_map
      (function
        | Node (n, ancs) ->
          List.filter
            (function
              | Node (Xml.Element _, _) -> true
              | Node (Xml.Text _, _) | Attr_item _ -> false)
            (children_items n ancs)
        | Attr_item _ -> [])
      items
  | Text_test ->
    List.concat_map
      (function
        | Node (n, ancs) ->
          List.filter
            (function
              | Node (Xml.Text _, _) -> true
              | Node (Xml.Element _, _) | Attr_item _ -> false)
            (children_items n ancs)
        | Attr_item _ -> [])
      items
  | Attr name ->
    List.concat_map
      (function
        | Node (Xml.Element e, _) ->
          if name = "*" then List.map (fun (k, v) -> Attr_item (k, v)) e.attrs
          else
            (match Xml.attr e name with
             | Some v -> [ Attr_item (name, v) ]
             | None -> [])
        | Node (Xml.Text _, _) | Attr_item _ -> [])
      items

let rec select (ctx : ctx) (p : path) : item list =
  let start = if p.absolute then [ document_node ctx.root ] else [ ctx.item ] in
  List.fold_left
    (fun items (s : step) ->
       let tested = apply_test s.test items in
       List.fold_left
         (fun items pred ->
            let size = List.length items in
            List.filteri
              (fun i item ->
                 let c = { ctx with item; position = i + 1; size } in
                 match pred with
                 | Number x -> int_of_float x = i + 1
                 | e -> eval_bool c e)
              items)
         tested s.preds)
    start p.steps

and eval_bool (ctx : ctx) (e : expr) : bool =
  match e with
  | Path p -> select ctx p <> []
  | Literal s -> s <> ""
  | Number x -> x <> 0.0
  | True_ -> true
  | False_ -> false
  | Not e -> not (eval_bool ctx e)
  | And (a, b) -> eval_bool ctx a && eval_bool ctx b
  | Or (a, b) -> eval_bool ctx a || eval_bool ctx b
  | Cmp (op, a, b) -> eval_cmp ctx op a b
  | Var n -> eval_string ctx (Var n) <> ""
  | Count _ | Position | Last | Concat _ | Name_fn | Arith _ | Round _ ->
    eval_number ctx e <> 0.0 || eval_string ctx e <> ""

and eval_cmp ctx op a b : bool =
  (* Node-set comparison semantics: true if some pair of atomised values
     satisfies the comparison. *)
  let atomize = function
    | Path p -> List.map string_of_item (select ctx p)
    | e -> [ eval_string ctx e ]
  in
  let xs = atomize a and ys = atomize b in
  let cmp_str x y : bool =
    match float_of_string_opt x, float_of_string_opt y with
    | Some fx, Some fy ->
      (match op with
       | Eq -> fx = fy | Ne -> fx <> fy | Lt -> fx < fy
       | Le -> fx <= fy | Gt -> fx > fy | Ge -> fx >= fy)
    | _ ->
      (match op with
       | Eq -> x = y | Ne -> x <> y | Lt -> x < y
       | Le -> x <= y | Gt -> x > y | Ge -> x >= y)
  in
  List.exists (fun x -> List.exists (fun y -> cmp_str x y) ys) xs

and eval_string (ctx : ctx) (e : expr) : string =
  match e with
  | Literal s -> s
  | Number x ->
    if Float.is_integer x then string_of_int (int_of_float x) else string_of_float x
  | Path p ->
    (match select ctx p with
     | [] -> ""
     | item :: _ -> string_of_item item)
  | Concat es -> String.concat "" (List.map (eval_string ctx) es)
  | Count p -> string_of_int (List.length (select ctx p))
  | Position -> string_of_int ctx.position
  | Last -> string_of_int ctx.size
  | True_ -> "true"
  | False_ -> "false"
  | Name_fn ->
    (match ctx.item with
     | Node (Xml.Element e, _) -> e.tag
     | Node (Xml.Text _, _) -> ""
     | Attr_item (n, _) -> n)
  | Var n ->
    (match List.assoc_opt n ctx.vars with
     | Some v -> v
     | None -> parse_error "unbound variable $%s" n)
  | Arith _ | Round _ ->
    let x = eval_number ctx e in
    if Float.is_integer x && Float.abs x < 1e15 then string_of_int (int_of_float x)
    else string_of_float x
  | Not _ | And _ | Or _ | Cmp _ -> if eval_bool ctx e then "true" else "false"

and eval_number (ctx : ctx) (e : expr) : float =
  match e with
  | Number x -> x
  | Arith (op, a, b) ->
    let x = eval_number ctx a and y = eval_number ctx b in
    (match op with
     | Aadd -> x +. y
     | Asub -> x -. y
     | Amul -> x *. y
     | Adiv -> x /. y
     | Amod -> Float.rem x y)
  | Round e -> Float.round (eval_number ctx e)
  | Count p -> float_of_int (List.length (select ctx p))
  | Position -> float_of_int ctx.position
  | Last -> float_of_int ctx.size
  | e ->
    (match float_of_string_opt (eval_string ctx e) with
     | Some x -> x
     | None -> Float.nan)
