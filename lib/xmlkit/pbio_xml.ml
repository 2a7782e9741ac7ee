(* XML encoding of PBIO-typed values: the comparison baseline of the
   paper's evaluation (Section 5).

   Mapping: the base record becomes the root element (named by the format),
   each field becomes a child element named after the field, nested records
   recurse and array fields repeat their element once per entry.  This is
   the natural hand-rolled encoding the paper builds with sprintf(): tags
   carry all the meta-data inline, which is exactly the size overhead
   Table 1 measures.

   [encode] writes text straight into a buffer (the sprintf/strcat path of
   Figure 8); [decode] parses the text and traverses the tree into a typed
   value (the two decode components of Figures 9 and 10). *)

open Pbio

exception Xml_decode_error of string

let xml_decode_error fmt = Fmt.kstr (fun s -> raise (Xml_decode_error s)) fmt

(* --- encoding ------------------------------------------------------------ *)

let add_basic buf (v : Value.t) =
  match v with
  | Value.Int n | Value.Uint n -> Buffer.add_string buf (string_of_int n)
  | Value.Float x -> Buffer.add_string buf (Printf.sprintf "%.17g" x)
  | Value.Char c -> Xml_print.escape_into buf (String.make 1 c)
  | Value.Bool b -> Buffer.add_string buf (if b then "1" else "0")
  | Value.Enum (case, _) -> Buffer.add_string buf case
  | Value.String s -> Xml_print.escape_into buf s
  | Value.Record _ | Value.Array _ -> invalid_arg "add_basic: complex value"

let rec encode_field buf (f : Ptype.field) (v : Value.t) =
  match f.ftype with
  | Basic _ ->
    Buffer.add_char buf '<';
    Buffer.add_string buf f.fname;
    Buffer.add_char buf '>';
    add_basic buf v;
    Buffer.add_string buf "</";
    Buffer.add_string buf f.fname;
    Buffer.add_char buf '>'
  | Record r ->
    Buffer.add_char buf '<';
    Buffer.add_string buf f.fname;
    Buffer.add_char buf '>';
    encode_fields buf r v;
    Buffer.add_string buf "</";
    Buffer.add_string buf f.fname;
    Buffer.add_char buf '>'
  | Array { elem; _ } ->
    let n = Value.array_len v in
    for i = 0 to n - 1 do
      encode_field buf { f with ftype = elem } (Value.array_get v i)
    done

and encode_fields buf (r : Ptype.record) (v : Value.t) =
  let es = Value.entries v in
  List.iteri (fun i (f : Ptype.field) -> encode_field buf f es.(i).Value.v) r.fields

let encode_into buf (r : Ptype.record) (v : Value.t) : unit =
  Buffer.add_char buf '<';
  Buffer.add_string buf r.rname;
  Buffer.add_char buf '>';
  encode_fields buf r v;
  Buffer.add_string buf "</";
  Buffer.add_string buf r.rname;
  Buffer.add_char buf '>'

let encode (r : Ptype.record) (v : Value.t) : string =
  let buf = Buffer.create 1024 in
  encode_into buf r v;
  Buffer.contents buf

(* Raw (unescaped) text for a basic value; the printer escapes on output. *)
let basic_to_string (v : Value.t) : string =
  match v with
  | Value.Int n | Value.Uint n -> string_of_int n
  | Value.Float x -> Printf.sprintf "%.17g" x
  | Value.Char c -> String.make 1 c
  | Value.Bool b -> if b then "1" else "0"
  | Value.Enum (case, _) -> case
  | Value.String s -> s
  | Value.Record _ | Value.Array _ -> invalid_arg "basic_to_string: complex value"

(* Tree form, for the XSLT engine. *)
let rec field_to_xml (f : Ptype.field) (v : Value.t) : Xml.t list =
  match f.ftype with
  | Basic _ ->
    [ Xml.element f.fname [ Xml.text (basic_to_string v) ] ]
  | Record r ->
    [ Xml.element f.fname (record_children r v) ]
  | Array { elem; _ } ->
    let n = Value.array_len v in
    List.concat
      (List.init n (fun i -> field_to_xml { f with ftype = elem } (Value.array_get v i)))

and record_children (r : Ptype.record) (v : Value.t) : Xml.t list =
  let es = Value.entries v in
  List.concat (List.mapi (fun i (f : Ptype.field) -> field_to_xml f es.(i).Value.v) r.fields)

let to_xml (r : Ptype.record) (v : Value.t) : Xml.t =
  Xml.element r.rname (record_children r v)

(* --- decoding ------------------------------------------------------------ *)

let basic_of_text (b : Ptype.basic) (s : string) : Value.t =
  match b with
  | Int ->
    (try Value.Int (int_of_string (String.trim s))
     with Failure _ -> xml_decode_error "bad int %S" s)
  | Uint ->
    (try Value.Uint (int_of_string (String.trim s))
     with Failure _ -> xml_decode_error "bad unsigned %S" s)
  | Float ->
    (try Value.Float (float_of_string (String.trim s))
     with Failure _ -> xml_decode_error "bad float %S" s)
  | Char -> if String.length s > 0 then Value.Char s.[0] else Value.Char '\x00'
  | Bool ->
    (match String.trim s with
     | "1" | "true" -> Value.Bool true
     | "0" | "false" | "" -> Value.Bool false
     | s -> xml_decode_error "bad bool %S" s)
  | String -> Value.String s
  | Enum e ->
    let s = String.trim s in
    (match List.assoc_opt s e.cases with
     | Some n -> Value.Enum (s, n)
     | None ->
       (match int_of_string_opt s with
        | Some n ->
          (match List.find_opt (fun (_, v) -> v = n) e.cases with
           | Some (case, _) -> Value.Enum (case, n)
           | None -> xml_decode_error "enum %s: unknown value %S" e.ename s)
        | None -> xml_decode_error "enum %s: unknown case %S" e.ename s))

let rec value_of_element (r : Ptype.record) (children : Xml.t list) : Value.t =
  let elems =
    List.filter_map (function Xml.Element e -> Some e | Xml.Text _ -> None) children
  in
  let entries =
    List.map
      (fun (f : Ptype.field) ->
         let matching = List.filter (fun (e : Xml.element) -> e.tag = f.fname) elems in
         let v =
           match f.ftype with
           | Basic b ->
             (match matching with
              | e :: _ -> basic_of_text b (Xml.text_content (Xml.Element e))
              | [] -> Value.default f.ftype)
           | Record r' ->
             (match matching with
              | e :: _ -> value_of_element r' e.children
              | [] -> Value.default f.ftype)
           | Array { elem; _ } ->
             let items =
               List.map
                 (fun (e : Xml.element) ->
                    match elem with
                    | Basic b -> basic_of_text b (Xml.text_content (Xml.Element e))
                    | Record r' -> value_of_element r' e.children
                    | Array _ ->
                      xml_decode_error "nested arrays have no XML field mapping")
                 matching
             in
             Value.array_of_list items
         in
         (f.fname, v))
      r.fields
  in
  Value.record entries

let of_xml (r : Ptype.record) (doc : Xml.t) : Value.t =
  match doc with
  | Xml.Element e when e.tag = r.rname ->
    let v = value_of_element r e.children in
    (* one recursive sync from the top covers every nested record *)
    Value.sync_lengths r v;
    v
  | Xml.Element e -> xml_decode_error "expected root <%s>, got <%s>" r.rname e.tag
  | Xml.Text _ -> xml_decode_error "expected root element"

let decode (r : Ptype.record) (src : string) : (Value.t, Err.t) result =
  match Xml_parser.parse src with
  | Error msg -> Error (`Decode msg)
  | Ok doc ->
    (try Ok (of_xml r doc) with Xml_decode_error msg -> Error (`Decode msg))
