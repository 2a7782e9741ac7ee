(* Field type descriptions for PBIO record formats.

   A format describes the names, types, sizes and positions of the fields of
   the records a writer emits (paper, Section 3.2 / Figure 2).  Types are
   split, as in the paper, into [basic] types (integer, unsigned integer,
   float, char, boolean, enumeration, string) and [complex] types built from
   collections of other fields (records and arrays). *)

type enum = {
  ename : string;
  cases : (string * int) list;
}

type basic =
  | Int
  | Uint
  | Float
  | Char
  | Bool
  | String
  | Enum of enum

(* Constant literals usable as per-field default values. *)
type const =
  | Cint of int
  | Cfloat of float
  | Cchar of char
  | Cbool of bool
  | Cstring of string
  | Cenum of string

type t =
  | Basic of basic
  | Record of record
  | Array of array_spec

and record = {
  rname : string;
  fields : field list;
}

and field = {
  fname : string;
  ftype : t;
  fdefault : const option;
}

and array_spec = {
  elem : t;
  size : size;
}

(* Variable-sized arrays take their length from a sibling integer field, as
   PBIO does; fixed arrays have a static element count. *)
and size =
  | Fixed of int
  | Length_field of string

let field ?default fname ftype = { fname; ftype; fdefault = default }

let int_ = Basic Int
let uint = Basic Uint
let float_ = Basic Float
let char_ = Basic Char
let bool_ = Basic Bool
let string_ = Basic String
let enum ename cases = Basic (Enum { ename; cases })

let record rname fields = { rname; fields }

let array_fixed n elem = Array { elem; size = Fixed n }
let array_var length_field elem = Array { elem; size = Length_field length_field }

let is_basic = function Basic _ -> true | Record _ | Array _ -> false

(* The weight W_f of a format: the total number of basic-type fields,
   counting basic fields nested inside complex fields (paper, Section 3.1).
   An array weighs as much as one element: its fields are described once in
   the meta-data, whatever the runtime length. *)
let rec weight_of_type = function
  | Basic _ -> 1
  | Record r -> weight r
  | Array a -> weight_of_type a.elem

and weight r =
  List.fold_left (fun acc f -> acc + weight_of_type f.ftype) 0 r.fields

let find_field r fname = List.find_opt (fun f -> f.fname = fname) r.fields

let field_index r fname =
  let rec go i = function
    | [] -> None
    | f :: rest -> if f.fname = fname then Some i else go (i + 1) rest
  in
  go 0 r.fields

(* Structural equality, used for format identity (registry dedup, receiver
   caches).  Field order matters: two formats listing the same fields in a
   different order are distinct wire formats. *)
let rec equal_type t1 t2 =
  match t1, t2 with
  | Basic b1, Basic b2 -> equal_basic b1 b2
  | Record r1, Record r2 -> equal_record r1 r2
  | Array a1, Array a2 -> equal_size a1.size a2.size && equal_type a1.elem a2.elem
  | (Basic _ | Record _ | Array _), _ -> false

and equal_basic b1 b2 =
  match b1, b2 with
  | Enum e1, Enum e2 -> e1.ename = e2.ename && e1.cases = e2.cases
  | (Int | Uint | Float | Char | Bool | String | Enum _), _ -> b1 = b2

and equal_size s1 s2 =
  match s1, s2 with
  | Fixed n1, Fixed n2 -> n1 = n2
  | Length_field n1, Length_field n2 -> n1 = n2
  | (Fixed _ | Length_field _), _ -> false

and equal_record r1 r2 =
  r1.rname = r2.rname
  && List.length r1.fields = List.length r2.fields
  && List.for_all2 equal_field r1.fields r2.fields

and equal_field f1 f2 =
  f1.fname = f2.fname
  && Option.equal equal_const f1.fdefault f2.fdefault
  && equal_type f1.ftype f2.ftype

(* Total, unlike [=]: floats compare by their bits, as [Meta] encodes them,
   so a [nan] default equals itself and [0.0] differs from [-0.0]. *)
and equal_const c1 c2 =
  match c1, c2 with
  | Cfloat x1, Cfloat x2 ->
    Int64.equal (Int64.bits_of_float x1) (Int64.bits_of_float x2)
  | (Cint _ | Cfloat _ | Cchar _ | Cbool _ | Cstring _ | Cenum _), _ -> c1 = c2

(* A stable structural hash over the whole format, used as cache key. *)
let hash_record r =
  let buf = Buffer.create 256 in
  let add s = Buffer.add_string buf s; Buffer.add_char buf '\x00' in
  let rec go_type = function
    | Basic Int -> add "i"
    | Basic Uint -> add "u"
    | Basic Float -> add "f"
    | Basic Char -> add "c"
    | Basic Bool -> add "b"
    | Basic String -> add "s"
    | Basic (Enum e) ->
      add "e"; add e.ename;
      List.iter (fun (n, v) -> add n; add (string_of_int v)) e.cases
    | Record r -> add "R"; go_record r
    | Array a ->
      (match a.size with
       | Fixed n -> add "A"; add (string_of_int n)
       | Length_field f -> add "V"; add f);
      go_type a.elem
  and go_record r =
    add r.rname;
    List.iter
      (fun f ->
         add f.fname;
         (match f.fdefault with
          | None -> add "_"
          | Some c -> add (match c with
              | Cint n -> "di" ^ string_of_int n
              | Cfloat x -> "df" ^ string_of_float x
              | Cchar c -> "dc" ^ String.make 1 c
              | Cbool b -> "db" ^ string_of_bool b
              | Cstring s -> "ds" ^ s
              | Cenum s -> "de" ^ s));
         go_type f.ftype)
      r.fields
  in
  go_record r;
  Hashtbl.hash (Buffer.contents buf)

(* Validation: variable-array length fields must name an integer field
   declared earlier in the same record, and names must be unique within a
   record. *)
type error = {
  where : string;
  what : string;
}

let validate (r : record) : (unit, error) result =
  let err where what = Error { where; what } in
  let rec go_record path r =
    let seen = Hashtbl.create 8 in
    let rec loop preceding = function
      | [] -> Ok ()
      | f :: rest ->
        let path_f = path ^ "." ^ f.fname in
        if Hashtbl.mem seen f.fname then
          err path_f "duplicate field name"
        else begin
          Hashtbl.add seen f.fname ();
          match go_type path_f preceding f.ftype with
          | Error _ as e -> e
          | Ok () -> loop (f :: preceding) rest
        end
    and go_type path_f preceding = function
      | Basic (Enum e) ->
        if e.cases = [] then err path_f ("enum " ^ e.ename ^ " has no cases")
        else Ok ()
      | Basic _ -> Ok ()
      | Record r' -> go_record path_f r'
      | Array a ->
        (match a.size with
         | Fixed n when n < 0 -> err path_f "negative fixed array size"
         | Fixed _ -> go_type path_f preceding a.elem
         | Length_field name ->
           let is_int_field f =
             f.fname = name
             && (match f.ftype with Basic (Int | Uint) -> true | _ -> false)
           in
           if List.exists is_int_field preceding then go_type path_f preceding a.elem
           else
             err path_f
               (Printf.sprintf
                  "length field %S must be an integer field declared earlier"
                  name))
    in
    loop [] r.fields
  in
  go_record r.rname r

(* Pretty-printing, in the spirit of the paper's Figure 2 declarations. *)
let rec pp_type ppf = function
  | Basic Int -> Fmt.string ppf "int"
  | Basic Uint -> Fmt.string ppf "unsigned"
  | Basic Float -> Fmt.string ppf "float"
  | Basic Char -> Fmt.string ppf "char"
  | Basic Bool -> Fmt.string ppf "bool"
  | Basic String -> Fmt.string ppf "string"
  | Basic (Enum e) -> Fmt.pf ppf "enum %s" e.ename
  | Record r -> Fmt.pf ppf "record %s" r.rname
  | Array { elem; size = Fixed n } -> Fmt.pf ppf "%a[%d]" pp_type elem n
  | Array { elem; size = Length_field f } -> Fmt.pf ppf "%a[%s]" pp_type elem f

let pp_const ppf = function
  | Cint n -> Fmt.int ppf n
  | Cfloat x -> Fmt.float ppf x
  | Cchar c -> Fmt.pf ppf "%C" c
  | Cbool b -> Fmt.bool ppf b
  | Cstring s -> Fmt.pf ppf "%S" s
  | Cenum s -> Fmt.string ppf s

let rec pp_record ppf r =
  Fmt.pf ppf "@[<v 2>format %s {" r.rname;
  List.iter (fun f -> Fmt.pf ppf "@,%a" pp_field f) r.fields;
  Fmt.pf ppf "@]@,}"

and pp_field ppf f =
  (match f.ftype with
   | Record r -> Fmt.pf ppf "%a %s;" pp_record r f.fname
   | Array { elem = Record r; size } ->
     let pp_size ppf = function
       | Fixed n -> Fmt.int ppf n
       | Length_field name -> Fmt.string ppf name
     in
     Fmt.pf ppf "%a %s[%a];" pp_record r f.fname pp_size size
   | _ -> Fmt.pf ppf "%a %s;" pp_type f.ftype f.fname);
  match f.fdefault with
  | None -> ()
  | Some c -> Fmt.pf ppf " /* default %a */" pp_const c

let record_to_string r = Fmt.str "%a" pp_record r
