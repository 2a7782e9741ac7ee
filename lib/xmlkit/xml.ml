(* A small XML document model, standing in for libxml2's tree API
   (DESIGN.md, substitution S2). *)

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

let element ?(attrs = []) tag children = Element { tag; attrs; children }
let text s = Text s

let tag_of = function
  | Element e -> Some e.tag
  | Text _ -> None

let attr (e : element) name = List.assoc_opt name e.attrs

let children = function
  | Element e -> e.children
  | Text _ -> []

let child_elements node =
  List.filter_map
    (function Element e -> Some e | Text _ -> None)
    (children node)

let find_child (e : element) tag =
  List.find_opt (fun (c : element) -> c.tag = tag) (child_elements (Element e))

(* The concatenated character data of a node, as XPath's string() does. *)
let rec text_content = function
  | Text s -> s
  | Element e -> String.concat "" (List.map text_content e.children)

(* Structural equality ignoring pure-whitespace text nodes and attribute
   order: convenient for tests comparing transformation outputs. *)
let is_blank s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

let rec equal a b =
  match a, b with
  | Text s1, Text s2 -> s1 = s2
  | Element e1, Element e2 ->
    e1.tag = e2.tag
    && List.length e1.attrs = List.length e2.attrs
    && List.for_all
      (fun (k, v) -> List.assoc_opt k e2.attrs = Some v)
      e1.attrs
    && (let strip ns =
          List.filter (function Text s -> not (is_blank s) | Element _ -> true) ns
        in
        let c1 = strip e1.children and c2 = strip e2.children in
        List.length c1 = List.length c2 && List.for_all2 equal c1 c2)
  | (Text _ | Element _), _ -> false
