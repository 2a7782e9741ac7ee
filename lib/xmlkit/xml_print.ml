(* XML serialisation.  [to_string] is the compact wire form used by the
   benchmarks (the paper's sprintf-based encoder); [to_string_indented] is
   for humans. *)

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

let rec add_indented buf depth (node : Xml.t) =
  let pad () = for _ = 1 to depth * 2 do Buffer.add_char buf ' ' done in
  match node with
  | Xml.Text s ->
    if not (Xml.is_blank s) then begin
      pad ();
      escape_into buf s;
      Buffer.add_char buf '\n'
    end
  | Xml.Element e ->
    pad ();
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_attrs buf e.attrs;
    (match e.children with
     | [] -> Buffer.add_string buf "/>\n"
     | [ Xml.Text s ] when String.length s < 60 ->
       Buffer.add_char buf '>';
       escape_into buf s;
       Buffer.add_string buf "</";
       Buffer.add_string buf e.tag;
       Buffer.add_string buf ">\n"
     | children ->
       Buffer.add_string buf ">\n";
       List.iter (add_indented buf (depth + 1)) children;
       pad ();
       Buffer.add_string buf "</";
       Buffer.add_string buf e.tag;
       Buffer.add_string buf ">\n")

let to_string_indented (node : Xml.t) : string =
  let buf = Buffer.create 1024 in
  add_indented buf 0 node;
  Buffer.contents buf
