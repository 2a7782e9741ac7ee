(* Size accounting for Table 1 of the paper.

   [unencoded] models the in-memory ("unencoded") size of a C data-structure
   block holding the message: 4-byte ints, unsigneds, booleans and enums,
   8-byte doubles, 1-byte chars, strings as their bytes plus a NUL
   terminator, variable arrays as their elements (the length lives in its
   own integer field).  This is the baseline row of Table 1. *)

let c_int = 4
let c_float = 8
let c_char = 1
let c_bool = 4
let c_enum = 4

let rec unencoded_type (ty : Ptype.t) (v : Value.t) : int =
  match ty with
  | Basic Int | Basic Uint -> c_int
  | Basic Float -> c_float
  | Basic Char -> c_char
  | Basic Bool -> c_bool
  | Basic (Enum _) -> c_enum
  | Basic String -> String.length (Value.to_string_exn v) + 1
  | Record r -> unencoded r v
  | Array { elem; _ } ->
    let n = Value.array_len v in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + unencoded_type elem (Value.array_get v i)
    done;
    !acc

and unencoded (r : Ptype.record) (v : Value.t) : int =
  List.fold_left
    (fun acc (f : Ptype.field) -> acc + unencoded_type f.ftype (Value.get_field v f.fname))
    0 r.fields

(* Wire ("PBIO encoded") size: header plus payload, computed without
   actually encoding.  Must agree with [Wire.encode]; a test enforces it. *)

let rec wire_payload_type (ty : Ptype.t) (v : Value.t) : int =
  match ty with
  | Basic Int | Basic Uint -> 4
  | Basic Float -> 8
  | Basic Char -> 1
  | Basic Bool -> 1
  | Basic (Enum _) -> 4
  | Basic String -> 4 + String.length (Value.to_string_exn v)
  | Record r -> wire_payload r v
  | Array { elem; _ } ->
    (* Variable arrays carry no count on the wire: the count is the value of
       the sibling length field, which is encoded as an ordinary integer. *)
    let n = Value.array_len v in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + wire_payload_type elem (Value.array_get v i)
    done;
    !acc

and wire_payload (r : Ptype.record) (v : Value.t) : int =
  List.fold_left
    (fun acc (f : Ptype.field) -> acc + wire_payload_type f.ftype (Value.get_field v f.fname))
    0 r.fields

