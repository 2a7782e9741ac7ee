(* A hand-written XML parser (elements, attributes, character data, CDATA,
   comments, processing instructions, doctype, the five predefined entities
   and numeric character references).  Stands in for libxml2's parser in
   the Figure 8-10 baselines: like libxml2 it does real text scanning,
   entity decoding and tree building per message. *)

exception Error of string * int (* message, byte offset *)

let error pos fmt = Fmt.kstr (fun s -> raise (Error (s, pos))) fmt

type state = {
  src : string;
  mutable pos : int;
}

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let skip st n = st.pos <- st.pos + n

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws st =
  while (match peek st with Some c -> is_ws c | None -> false) do skip st 1 done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st : string =
  let start = st.pos in
  (match peek st with
   | Some c when is_name_start c -> skip st 1
   | _ -> error st.pos "expected a name");
  while (match peek st with Some c -> is_name_char c | None -> false) do skip st 1 done;
  String.sub st.src start (st.pos - start)

let decode_entity st : string =
  (* called just past '&' *)
  let semi =
    match String.index_from_opt st.src st.pos ';' with
    | Some i when i - st.pos <= 10 -> i
    | _ -> error st.pos "unterminated entity reference"
  in
  let name = String.sub st.src st.pos (semi - st.pos) in
  st.pos <- semi + 1;
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
    if String.length name > 1 && name.[0] = '#' then begin
      let code =
        try
          if name.[1] = 'x' || name.[1] = 'X' then
            int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
          else int_of_string (String.sub name 1 (String.length name - 1))
        with Failure _ -> error st.pos "bad character reference &%s;" name
      in
      if code < 0x80 then String.make 1 (Char.chr code)
      else begin
        (* minimal UTF-8 encoding *)
        let buf = Buffer.create 4 in
        if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else if code < 0x10000 then begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end;
        Buffer.contents buf
      end
    end
    else error st.pos "unknown entity &%s;" name

let parse_attr_value st : string =
  let quote =
    match peek st with
    | Some (('"' | '\'') as q) ->
      skip st 1;
      q
    | _ -> error st.pos "expected quoted attribute value"
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st.pos "unterminated attribute value"
    | Some c when c = quote -> skip st 1
    | Some '&' ->
      skip st 1;
      Buffer.add_string buf (decode_entity st);
      go ()
    | Some c ->
      skip st 1;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let rec skip_misc st =
  skip_ws st;
  if looking_at st "<!--" then begin
    (match Str_search.find st.src "-->" (st.pos + 4) with
     | Some i -> st.pos <- i + 3
     | None -> error st.pos "unterminated comment");
    skip_misc st
  end
  else if looking_at st "<?" then begin
    (match Str_search.find st.src "?>" (st.pos + 2) with
     | Some i -> st.pos <- i + 2
     | None -> error st.pos "unterminated processing instruction");
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    (* skip to matching '>' (no internal subset support) *)
    (match String.index_from_opt st.src st.pos '>' with
     | Some i -> st.pos <- i + 1
     | None -> error st.pos "unterminated doctype");
    skip_misc st
  end

let rec parse_element st : Xml.t =
  (* called at '<' of a start tag *)
  skip st 1;
  let tag = parse_name st in
  let rec attrs acc =
    skip_ws st;
    match peek st with
    | Some '>' ->
      skip st 1;
      let children = parse_content st tag in
      Xml.Element { tag; attrs = List.rev acc; children }
    | Some '/' when looking_at st "/>" ->
      skip st 2;
      Xml.Element { tag; attrs = List.rev acc; children = [] }
    | Some c when is_name_start c ->
      let name = parse_name st in
      skip_ws st;
      (match peek st with
       | Some '=' -> skip st 1
       | _ -> error st.pos "expected '=' after attribute %S" name);
      skip_ws st;
      let v = parse_attr_value st in
      attrs ((name, v) :: acc)
    | _ -> error st.pos "malformed start tag <%s" tag
  in
  attrs []

and parse_content st tag : Xml.t list =
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      out := Xml.Text (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  let rec go () =
    match peek st with
    | None -> error st.pos "unterminated element <%s>" tag
    | Some '<' ->
      if looking_at st "</" then begin
        flush_text ();
        skip st 2;
        let closing = parse_name st in
        skip_ws st;
        (match peek st with
         | Some '>' -> skip st 1
         | _ -> error st.pos "malformed end tag </%s" closing);
        if closing <> tag then
          error st.pos "mismatched end tag </%s> for <%s>" closing tag
      end
      else if looking_at st "<!--" then begin
        (match Str_search.find st.src "-->" (st.pos + 4) with
         | Some i -> st.pos <- i + 3
         | None -> error st.pos "unterminated comment");
        go ()
      end
      else if looking_at st "<![CDATA[" then begin
        let start = st.pos + 9 in
        (match Str_search.find st.src "]]>" start with
         | Some i ->
           Buffer.add_string buf (String.sub st.src start (i - start));
           st.pos <- i + 3
         | None -> error st.pos "unterminated CDATA section");
        go ()
      end
      else if looking_at st "<?" then begin
        (match Str_search.find st.src "?>" (st.pos + 2) with
         | Some i -> st.pos <- i + 2
         | None -> error st.pos "unterminated processing instruction");
        go ()
      end
      else begin
        flush_text ();
        out := parse_element st :: !out;
        go ()
      end
    | Some '&' ->
      skip st 1;
      Buffer.add_string buf (decode_entity st);
      go ()
    | Some c ->
      skip st 1;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  List.rev !out

let parse (src : string) : (Xml.t, string) result =
  try
    let st = { src; pos = 0 } in
    skip_misc st;
    (match peek st with
     | Some '<' -> ()
     | _ -> error st.pos "expected root element");
    let root = parse_element st in
    skip_misc st;
    if st.pos <> String.length src then
      error st.pos "trailing content after root element";
    Ok root
  with Error (msg, pos) -> Result.Error (Fmt.str "XML error at offset %d: %s" pos msg)
