(* Structural format conversion, compiled once per format pair.

   This is the PBIO piece of "dynamic code generation": given the wire
   format of an incoming record and the (different) format the receiver
   registered, [compile] produces a specialised closure chain in which every
   field-name lookup, type dispatch and coercion has been resolved ahead of
   time.  Per message, only direct calls remain.

   Semantics follow the paper's imperfect-match step (Algorithm 2, lines
   26-29): fields are matched by name; target fields missing from the source
   take their default values; source fields absent from the target are
   dropped.  XML-style type mapping semantics by field name, generalised
   with numeric coercions. *)

type conv = Value.t -> Value.t

(* Coerce between basic types.  Returns None when no sensible coercion
   exists (the target field then takes its default). *)
let coerce_basic (src : Ptype.basic) (dst : Ptype.basic) : conv option =
  match src, dst with
  | Ptype.Int, Ptype.Int
  | Uint, Uint | Float, Float | Char, Char | Bool, Bool | String, String ->
    Some (fun v -> v)
  | Enum e1, Enum e2 when e1 = e2 -> Some (fun v -> v)
  | (Uint | Char | Bool | Enum _), Int -> Some (fun v -> Value.Int (Value.to_int v))
  | (Int | Char | Bool | Enum _), Uint -> Some (fun v -> Value.Uint (abs (Value.to_int v)))
  | (Int | Uint | Char | Bool | Enum _), Float ->
    Some (fun v -> Value.Float (Value.to_float v))
  | Float, Int -> Some (fun v -> Value.Int (int_of_float (Value.to_float v)))
  | Float, Uint -> Some (fun v -> Value.Uint (abs (int_of_float (Value.to_float v))))
  | (Int | Uint | Float | Char | Enum _), Bool -> Some (fun v -> Value.Bool (Value.to_bool v))
  | (Int | Uint), Char -> Some (fun v -> Value.Char (Char.chr (Value.to_int v land 0xff)))
  | (Int | Uint | Char | Bool), Enum e ->
    (* value -> case-name table built once when the coercion is compiled;
       first binding wins, like the [List.find_opt] it replaces *)
    let tbl = Hashtbl.create (2 * List.length e.cases) in
    List.iter (fun (c, n) -> if not (Hashtbl.mem tbl n) then Hashtbl.add tbl n c) e.cases;
    let fallback = Value.zero_basic (Enum e) in
    Some
      (fun v ->
         let n = Value.to_int v in
         match Hashtbl.find_opt tbl n with
         | Some case -> Value.Enum (case, n)
         | None -> fallback)
  | Enum _, Enum e2 ->
    (* Map by case name where possible, falling back to the target's first
       case: renumbered enums keep their meaning across versions.  The
       name -> value table keeps the first binding, like [List.assoc_opt]. *)
    let tbl = Hashtbl.create (2 * List.length e2.cases) in
    List.iter (fun (c, n) -> if not (Hashtbl.mem tbl c) then Hashtbl.add tbl c n) e2.cases;
    let fallback = Value.zero_basic (Enum e2) in
    Some
      (fun v ->
         match v with
         | Value.Enum (case, _) ->
           (match Hashtbl.find_opt tbl case with
            | Some n -> Value.Enum (case, n)
            | None -> fallback)
         | _ -> fallback)
  | String, (Int | Uint | Float | Char | Bool | Enum _)
  | (Int | Uint | Float | Char | Bool | Enum _), String
  | (Float | Bool | Enum _), Char
  | Float, Enum _ ->
    None

let convertible (src : Ptype.t) (dst : Ptype.t) : bool =
  match src, dst with
  | Basic b1, Basic b2 -> Option.is_some (coerce_basic b1 b2)
  | Record _, Record _ | Array _, Array _ -> true
  | (Basic _ | Record _ | Array _), _ -> false

let field_default (f : Ptype.field) : unit -> Value.t =
  let model =
    match f.fdefault, f.ftype with
    | Some c, Ptype.Basic b -> Value.of_const c ~ty:b
    | _, ty -> Value.default ty
  in
  match model with
  | Int _ | Uint _ | Float _ | Char _ | Bool _ | Enum _ | String _ ->
    (fun () -> model) (* immutable: safe to share *)
  | Record _ | Array _ -> (fun () -> Value.copy model)

let rec compile_type (src : Ptype.t) (dst : Ptype.t) : conv option =
  match src, dst with
  | Basic b1, Basic b2 -> coerce_basic b1 b2
  | Record r1, Record r2 -> Some (compile_record r1 r2)
  | Array a1, Array a2 ->
    let elem_conv =
      match compile_type a1.elem a2.elem with
      | Some c -> c
      | None ->
        let d = Value.default a2.elem in
        fun _ -> Value.copy d
    in
    let fill () = Value.default a2.elem in
    (match a2.size with
     | Length_field _ ->
       Some
         (fun v ->
            let n = Value.array_len v in
            let items = Array.init n (fun i -> elem_conv (Value.array_get v i)) in
            Value.Array { items; len = n })
     | Fixed k ->
       Some
         (fun v ->
            let n = Value.array_len v in
            let items =
              Array.init k (fun i ->
                  if i < n then elem_conv (Value.array_get v i) else fill ())
            in
            Value.Array { items; len = k }))
  | (Basic _ | Record _ | Array _), _ -> None

and compile_record (src : Ptype.record) (dst : Ptype.record) : conv =
  (* One slot per target field: either pull-and-convert from a source index,
     or materialise the default. *)
  let src_fields = Array.of_list src.fields in
  let slot (f : Ptype.field) : int * (Value.t -> Value.t) option * (unit -> Value.t) =
    let default = field_default f in
    match Ptype.field_index src f.fname with
    | None -> (-1, None, default)
    | Some i ->
      (match compile_type src_fields.(i).Ptype.ftype f.ftype with
       | None -> (-1, None, default)
       | Some conv -> (i, Some conv, default))
  in
  let slots = Array.of_list (List.map (fun f -> (f.Ptype.fname, slot f)) dst.fields) in
  fun v ->
    let es = Value.entries v in
    let out =
      Array.map
        (fun (name, (i, conv, default)) ->
           let v' =
             match conv with
             | Some conv -> conv es.(i).Value.v
             | None -> default ()
           in
           { Value.name; v = v' })
        slots
    in
    Value.Record out

let compile ~(from_ : Ptype.record) ~(into : Ptype.record) : conv =
  let body = compile_record from_ into in
  let sync = Value.compile_sync into in
  fun v ->
    let out = body v in
    (* Length fields may have been matched by name from the source; make
       them agree with the converted arrays. *)
    sync out;
    out

let convert ~from_ ~into v =
  match compile ~from_ ~into v with
  | out -> Ok out
  | exception Value.Type_error msg -> Error (`Type msg)
