(* XML serialisation.  [to_string] is the compact wire form used by the
   benchmarks (the paper's sprintf-based encoder). *)

let escape_into buf s =
  String.iter
    (fun c ->
       match c with
       | '<' -> Buffer.add_string buf "&lt;"
       | '>' -> Buffer.add_string buf "&gt;"
       | '&' -> Buffer.add_string buf "&amp;"
       | '"' -> Buffer.add_string buf "&quot;"
       | '\'' -> Buffer.add_string buf "&apos;"
       | c -> Buffer.add_char buf c)
    s

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
       Buffer.add_char buf ' ';
       Buffer.add_string buf k;
       Buffer.add_string buf "=\"";
       escape_into buf v;
       Buffer.add_char buf '"')
    attrs

let rec add_node buf (node : Xml.t) =
  match node with
  | Xml.Text s -> escape_into buf s
  | Xml.Element e ->
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_attrs buf e.attrs;
    (match e.children with
     | [] -> Buffer.add_string buf "/>"
     | children ->
       Buffer.add_char buf '>';
       List.iter (add_node buf) children;
       Buffer.add_string buf "</";
       Buffer.add_string buf e.tag;
       Buffer.add_char buf '>')

let to_string (node : Xml.t) : string =
  let buf = Buffer.create 1024 in
  add_node buf node;
  Buffer.contents buf
