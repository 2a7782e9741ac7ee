(* Out-of-band meta-data: a self-describing binary encoding of format
   descriptions, shipped once per (connection, format) before the first
   record of that format.  Following the paper, the meta-data for a format
   may also carry a set of retro-transformations: for each, the full
   description of the target format plus the Ecode source text that converts
   a message into it (Figure 1).  The code travels as an opaque string at
   this layer; the morphing layer parses and compiles it. *)

type xform_spec = {
  source : Ptype.record option;
  (* the format the snippet reads from; [None] means the base format this
     meta describes.  Explicit sources let a format ship a *chain* of
     transformations (Figure 1: Rev 2.0 -> Rev 1.0 -> Rev 0.0), each hop
     rolling back one revision. *)
  target : Ptype.record;
  code : string; (* Ecode source; input is bound to [new], output to [old] *)
}

type format_meta = {
  body : Ptype.record;
  xforms : xform_spec list;
}

let plain body = { body; xforms = [] }

(* Receivers and the gateway plan over every transformation a meta
   carries, before any match or compile, so a sender must not be able to
   make that work arbitrarily large. *)
let max_xforms = 64

(* The most bytes an encoded meta may take.  Shipped metas are far below
   it (ECho's largest, [response_v2_meta], is 1,305 B); it bounds what a
   decode memo can pin and what parsing a shipped snippet can cost. *)
let max_bytes = 65_536

let meta_magic = "PBIM"

exception Meta_error of string

let meta_error fmt = Fmt.kstr (fun s -> raise (Meta_error s)) fmt

(* Encoding: length-prefixed strings, 4-byte LE ints, 1-byte tags. *)

let add_int buf n = Buffer.add_int32_le buf (Int32.of_int n)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let rec add_type buf (ty : Ptype.t) =
  match ty with
  | Basic Int -> Buffer.add_char buf 'i'
  | Basic Uint -> Buffer.add_char buf 'u'
  | Basic Float -> Buffer.add_char buf 'f'
  | Basic Char -> Buffer.add_char buf 'c'
  | Basic Bool -> Buffer.add_char buf 'b'
  | Basic String -> Buffer.add_char buf 's'
  | Basic (Enum e) ->
    Buffer.add_char buf 'e';
    add_str buf e.ename;
    add_int buf (List.length e.cases);
    List.iter (fun (n, v) -> add_str buf n; add_int buf v) e.cases
  | Record r ->
    Buffer.add_char buf 'R';
    add_record buf r
  | Array { elem; size = Fixed n } ->
    Buffer.add_char buf 'A';
    add_int buf n;
    add_type buf elem
  | Array { elem; size = Length_field name } ->
    Buffer.add_char buf 'V';
    add_str buf name;
    add_type buf elem

and add_record buf (r : Ptype.record) =
  add_str buf r.rname;
  add_int buf (List.length r.fields);
  List.iter
    (fun (f : Ptype.field) ->
       add_str buf f.fname;
       (match f.fdefault with
        | None -> Buffer.add_char buf '_'
        | Some (Cint n) -> Buffer.add_char buf 'I'; add_int buf n
        | Some (Cfloat x) ->
          Buffer.add_char buf 'F';
          Buffer.add_int64_le buf (Int64.bits_of_float x)
        | Some (Cchar c) -> Buffer.add_char buf 'C'; Buffer.add_char buf c
        | Some (Cbool b) -> Buffer.add_char buf 'B'; Buffer.add_char buf (if b then '\x01' else '\x00')
        | Some (Cstring s) -> Buffer.add_char buf 'S'; add_str buf s
        | Some (Cenum s) -> Buffer.add_char buf 'E'; add_str buf s);
       add_type buf f.ftype)
    r.fields

let encode (m : format_meta) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf meta_magic;
  add_record buf m.body;
  add_int buf (List.length m.xforms);
  List.iter
    (fun x ->
       (match x.source with
        | None -> Buffer.add_char buf '_'
        | Some r -> Buffer.add_char buf 'S'; add_record buf r);
       add_record buf x.target;
       add_str buf x.code)
    m.xforms;
  Buffer.contents buf

(* Decoding *)

type cursor = { data : string; mutable pos : int }

let take cur n =
  if cur.pos + n > String.length cur.data then meta_error "truncated meta-data";
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

let take_char cur =
  if cur.pos >= String.length cur.data then meta_error "truncated meta-data";
  let c = cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let take_int cur =
  let s = take cur 4 in
  Int32.to_int (String.get_int32_le s 0)

let take_str cur =
  let n = take_int cur in
  if n < 0 then meta_error "negative string length";
  take cur n

let rec take_type cur : Ptype.t =
  match take_char cur with
  | 'i' -> Basic Int
  | 'u' -> Basic Uint
  | 'f' -> Basic Float
  | 'c' -> Basic Char
  | 'b' -> Basic Bool
  | 's' -> Basic String
  | 'e' ->
    let ename = take_str cur in
    let n = take_int cur in
    if n < 0 then meta_error "negative enum case count";
    let cases = List.init n (fun _ -> let c = take_str cur in (c, take_int cur)) in
    Basic (Enum { ename; cases })
  | 'R' -> Record (take_record cur)
  | 'A' ->
    let n = take_int cur in
    if n < 0 then meta_error "negative fixed array size";
    Array { size = Fixed n; elem = take_type cur }
  | 'V' ->
    let name = take_str cur in
    Array { size = Length_field name; elem = take_type cur }
  | c -> meta_error "bad type tag %C" c

and take_record cur : Ptype.record =
  let rname = take_str cur in
  let n = take_int cur in
  if n < 0 then meta_error "negative field count";
  let fields =
    List.init n (fun _ ->
        let fname = take_str cur in
        let fdefault : Ptype.const option =
          match take_char cur with
          | '_' -> None
          | 'I' -> Some (Cint (take_int cur))
          | 'F' ->
            let s = take cur 8 in
            Some (Cfloat (Int64.float_of_bits (String.get_int64_le s 0)))
          | 'C' -> Some (Cchar (take_char cur))
          | 'B' -> Some (Cbool (take_char cur <> '\x00'))
          | 'S' -> Some (Cstring (take_str cur))
          | 'E' -> Some (Cenum (take_str cur))
          | c -> meta_error "bad default tag %C" c
        in
        let ftype = take_type cur in
        { Ptype.fname; ftype; fdefault })
  in
  { rname; fields }

let decode (data : string) : (format_meta, Err.t) result =
  try
    if String.length data > max_bytes then
      meta_error "%d bytes of meta-data, more than the %d a meta may take"
        (String.length data) max_bytes;
    let cur = { data; pos = 0 } in
    if take cur 4 <> meta_magic then meta_error "bad meta magic";
    let body = take_record cur in
    let n = take_int cur in
    if n < 0 then meta_error "negative transformation count";
    if n > max_xforms then
      meta_error "%d transformations, more than the %d a meta may carry" n max_xforms;
    let xforms =
      List.init n (fun _ ->
          let source =
            match take_char cur with
            | '_' -> None
            | 'S' -> Some (take_record cur)
            | c -> meta_error "bad transformation source tag %C" c
          in
          let target = take_record cur in
          let code = take_str cur in
          { source; target; code })
    in
    if cur.pos <> String.length data then meta_error "trailing garbage in meta-data";
    Ok { body; xforms }
  with Meta_error msg -> Error (`Meta msg)

(* Structural identity of a full meta block (body plus transformations):
   receiver-side caches key on this. *)

let equal m1 m2 =
  Ptype.equal_record m1.body m2.body
  && List.length m1.xforms = List.length m2.xforms
  && List.for_all2
    (fun a b ->
       a.code = b.code
       && Ptype.equal_record a.target b.target
       && (match a.source, b.source with
           | None, None -> true
           | Some r1, Some r2 -> Ptype.equal_record r1 r2
           | None, Some _ | Some _, None -> false))
    m1.xforms m2.xforms

(* Every hop's source, target and code is folded into the accumulator, so
   each counts however long the chain: [Hashtbl.hash] reads only its first
   ten meaningful values, so over a list of hops it would ignore every hop
   past the third. *)
let hash m =
  let mix = Hashtbl.seeded_hash in
  List.fold_left
    (fun acc x ->
       let source =
         match x.source with None -> -1 | Some r -> Ptype.hash_record r
       in
       mix (mix (mix acc source) (Ptype.hash_record x.target)) (Hashtbl.hash x.code))
    (Ptype.hash_record m.body) m.xforms
