module Xml = Xmlkit.Xml

(* The XSLT execution engine: applies a stylesheet to a document, standing
   in for libxslt in the Figure 10 baseline. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* Output items: tree nodes plus pending attributes produced by
   xsl:attribute, which attach to the nearest enclosing output element. *)
type out =
  | Onode of Xml.t
  | Oattr of string * string

type ctx = {
  node : Xml.t;
  ancestors : string list; (* nearest first *)
  position : int;
  size : int;
  root : Xml.t;
  vars : (string * string) list; (* xsl:variable bindings, innermost first *)
}

let xctx (c : ctx) : Xpath.ctx =
  { Xpath.item = Xpath.Node (c.node, c.ancestors);
    position = c.position; size = c.size; root = c.root; vars = c.vars }

let eval_string c src = Xpath.eval_string (xctx c) (Xpath.expr_of_string src)
let eval_bool c src = Xpath.eval_bool (xctx c) (Xpath.expr_of_string src)
let select c src = Xpath.select (xctx c) (Xpath.path_of_string src)

(* Attribute value templates: "x{path}y" — braces evaluate as XPath. *)
let eval_avt (c : ctx) (s : string) : string =
  if not (String.contains s '{') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then ()
      else
        match s.[i] with
        | '{' ->
          let close =
            match String.index_from_opt s i '}' with
            | Some j -> j
            | None -> error "unterminated { in attribute value template %S" s
          in
          Buffer.add_string buf (eval_string c (String.sub s (i + 1) (close - i - 1)));
          go (close + 1)
        | c ->
          Buffer.add_char buf c;
          go (i + 1)
    in
    go 0;
    Buffer.contents buf
  end

let split_outs (outs : out list) : (string * string) list * Xml.t list =
  let rec go attrs nodes = function
    | [] -> (List.rev attrs, List.rev nodes)
    | Oattr (k, v) :: rest -> go ((k, v) :: attrs) nodes rest
    | Onode n :: rest -> go attrs (n :: nodes) rest
  in
  go [] [] outs

(* Selected nodes with the ancestor chains XPath computed for them. *)
let item_nodes items =
  List.filter_map
    (function
      | Xpath.Node (n, ancs) -> Some (n, ancs)
      | Xpath.Attr_item _ -> None)
    items

(* Variables bind for the *following siblings* of the xsl:variable element
   (and their descendants), so the body folds the context through. *)
let rec instantiate (sheet : Stylesheet.t) (c : ctx) (body : Xml.t list) : out list =
  let _, outs =
    List.fold_left
      (fun (c, acc) node ->
         match node with
         | Xml.Element e when e.tag = "xsl:variable" ->
           let name =
             match Xml.attr e "name" with
             | Some n -> n
             | None -> error "xsl:variable requires a name attribute"
           in
           let value =
             match Xml.attr e "select" with
             | Some sel -> eval_string c sel
             | None ->
               let outs = instantiate sheet c e.children in
               let _, nodes = split_outs outs in
               String.concat "" (List.map Xml.text_content nodes)
           in
           ({ c with vars = (name, value) :: c.vars }, acc)
         | _ -> (c, List.rev_append (instantiate_node sheet c node) acc))
      (c, []) body
  in
  List.rev outs

and instantiate_node sheet c (node : Xml.t) : out list =
  match node with
  | Xml.Text s -> [ Onode (Xml.Text s) ]
  | Xml.Element e when String.length e.tag > 4 && String.sub e.tag 0 4 = "xsl:" ->
    instruction sheet c e
  | Xml.Element e ->
    (* literal result element *)
    let attrs = List.map (fun (k, v) -> (k, eval_avt c v)) e.attrs in
    let outs = instantiate sheet c e.children in
    let extra_attrs, children = split_outs outs in
    [ Onode (Xml.Element { tag = e.tag; attrs = attrs @ extra_attrs; children }) ]

and instruction sheet c (e : Xml.element) : out list =
  let require_attr name =
    match Xml.attr e name with
    | Some v -> v
    | None -> error "<%s> requires a %s attribute" e.tag name
  in
  match e.tag with
  | "xsl:value-of" -> [ Onode (Xml.Text (eval_string c (require_attr "select"))) ]
  | "xsl:text" -> [ Onode (Xml.Text (Xml.text_content (Xml.Element e))) ]
  | "xsl:copy-of" ->
    List.map
      (function
        | Xpath.Node (n, _) -> Onode n
        | Xpath.Attr_item (k, v) -> Oattr (k, v))
      (select c (require_attr "select"))
  | "xsl:apply-templates" ->
    let nodes =
      match Xml.attr e "select" with
      | Some sel -> item_nodes (select c sel)
      | None ->
        let ancs = child_ancestors c in
        List.map (fun n -> (n, ancs)) (Xml.children c.node)
    in
    apply_to sheet c nodes
  | "xsl:for-each" ->
    let nodes = item_nodes (select c (require_attr "select")) in
    let size = List.length nodes in
    List.concat
      (List.mapi
         (fun i (n, ancs) ->
            let c' = { c with node = n; position = i + 1; size; ancestors = ancs } in
            instantiate sheet c' e.children)
         nodes)
  | "xsl:if" ->
    if eval_bool c (require_attr "test") then instantiate sheet c e.children else []
  | "xsl:choose" ->
    let rec go = function
      | [] -> []
      | Xml.Element w :: rest when w.tag = "xsl:when" ->
        (match Xml.attr w "test" with
         | Some t when eval_bool c t -> instantiate sheet c w.children
         | Some _ -> go rest
         | None -> error "xsl:when requires a test attribute")
      | Xml.Element o :: _ when o.tag = "xsl:otherwise" -> instantiate sheet c o.children
      | _ :: rest -> go rest
    in
    go e.children
  | "xsl:element" ->
    let tag = eval_avt c (require_attr "name") in
    let outs = instantiate sheet c e.children in
    let attrs, children = split_outs outs in
    [ Onode (Xml.Element { tag; attrs; children }) ]
  | "xsl:attribute" ->
    let name = eval_avt c (require_attr "name") in
    let outs = instantiate sheet c e.children in
    let _, children = split_outs outs in
    let value = String.concat "" (List.map Xml.text_content children) in
    [ Oattr (name, value) ]
  | "xsl:copy" ->
    (match c.node with
     | Xml.Text s -> [ Onode (Xml.Text s) ]
     | Xml.Element el ->
       let outs = instantiate sheet c e.children in
       let attrs, children = split_outs outs in
       [ Onode (Xml.Element { tag = el.tag; attrs; children }) ])
  | "xsl:comment" | "xsl:processing-instruction" -> []
  | tag -> error "unsupported XSLT instruction <%s>" tag

(* Ancestor chain for the children of the context node. *)
and child_ancestors (c : ctx) : string list =
  match c.node with
  | Xml.Element e -> e.tag :: c.ancestors
  | Xml.Text _ -> c.ancestors

and apply_to sheet (c : ctx) (nodes : (Xml.t * string list) list) : out list =
  let size = List.length nodes in
  List.concat
    (List.mapi
       (fun i (n, ancs) ->
          let c' = { c with node = n; position = i + 1; size; ancestors = ancs } in
          apply_one sheet c')
       nodes)

and apply_one sheet (c : ctx) : out list =
  let tag = Xml.tag_of c.node in
  match Stylesheet.find sheet ~tag ~ancestors:c.ancestors with
  | Some tpl -> instantiate sheet c tpl.body
  | None ->
    (* built-in rules: elements recurse into children, text copies out *)
    (match c.node with
     | Xml.Text s -> [ Onode (Xml.Text s) ]
     | Xml.Element _ ->
       let ancs = child_ancestors c in
       apply_to sheet c (List.map (fun n -> (n, ancs)) (Xml.children c.node)))

(* Apply [sheet] to [doc]; returns the result nodes (usually one element). *)
let apply (sheet : Stylesheet.t) (doc : Xml.t) : Xml.t list =
  let root_ctx =
    { node = doc; ancestors = []; position = 1; size = 1; root = doc; vars = [] }
  in
  let outs =
    match Stylesheet.find_root sheet with
    | Some tpl -> instantiate sheet root_ctx tpl.body
    | None -> apply_one sheet root_ctx
  in
  let attrs, nodes = split_outs outs in
  if attrs <> [] then error "xsl:attribute outside an element";
  nodes

let apply_to_element (sheet : Stylesheet.t) (doc : Xml.t) : Xml.t =
  match apply sheet doc with
  | [ n ] -> n
  | [] -> error "stylesheet produced no output"
  | nodes ->
    (* multiple roots: wrap as a fragment, mirroring libxslt's behaviour of
       tolerating fragments in memory *)
    Xml.element "result" nodes
