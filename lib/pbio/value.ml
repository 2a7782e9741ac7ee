(* Dynamic record values carried by the messaging layer.

   A value mirrors a {!Ptype.t}: records are arrays of mutable named entries
   (mutability is what lets compiled Ecode transformations write into a
   target message in place), arrays are growable so transformation code can
   append entries one at a time, as the paper's Figure 5 code does. *)

type t =
  | Int of int
  | Uint of int
  | Float of float
  | Char of char
  | Bool of bool
  | Enum of string * int (* case name, numeric value *)
  | String of string
  | Record of entry array
  | Array of dynarray

and entry = {
  name : string;
  mutable v : t;
}

and dynarray = {
  mutable items : t array;
  mutable len : int;
}

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(* Constructors *)

let record fields = Record (Array.of_list (List.map (fun (name, v) -> { name; v }) fields))

let array_of_list vs =
  let items = Array.of_list vs in
  Array { items; len = Array.length items }

(* Accessors *)

let to_int = function
  | Int n | Uint n | Enum (_, n) -> n
  | Char c -> Char.code c
  | Bool b -> if b then 1 else 0
  | v -> type_error "expected integer value, got %s"
           (match v with
            | Float _ -> "float" | String _ -> "string"
            | Record _ -> "record" | Array _ -> "array"
            | Int _ | Uint _ | Enum _ | Char _ | Bool _ -> assert false)

let to_float = function
  | Float x -> x
  | Int n | Uint n | Enum (_, n) -> float_of_int n
  | Char c -> float_of_int (Char.code c)
  | Bool b -> if b then 1.0 else 0.0
  | _ -> type_error "expected numeric value"

let to_bool = function
  | Bool b -> b
  | Int n | Uint n | Enum (_, n) -> n <> 0
  | Char c -> c <> '\x00'
  | Float x -> x <> 0.0
  | _ -> type_error "expected boolean value"

let to_string_exn = function
  | String s -> s
  | _ -> type_error "expected string value"

let entries = function
  | Record es -> es
  | _ -> type_error "expected record value"

let dyn = function
  | Array d -> d
  | _ -> type_error "expected array value"

(* Record field access by name (slow path; compiled code resolves indexes
   once and uses {!field_at}/{!set_at}). *)

let field_index es name =
  let rec go i =
    if i >= Array.length es then None
    else if es.(i).name = name then Some i
    else go (i + 1)
  in
  go 0

let get_field v name =
  let es = entries v in
  match field_index es name with
  | Some i -> es.(i).v
  | None -> type_error "record has no field %S" name

let set_field v name x =
  let es = entries v in
  match field_index es name with
  | Some i -> es.(i).v <- x
  | None -> type_error "record has no field %S" name

let has_field v name = field_index (entries v) name <> None

let field_at v i = (entries v).(i).v
let set_at v i x = (entries v).(i).v <- x

(* Deep copy (also used to fill growing arrays).  A record of up to 4
   fields is copied into an array literal, allocated inline, as
   [Codec.record_of] builds records; [Array.make] is a runtime call
   ([caml_make_vect]).  Larger records are copied by a plain loop: a
   closure passed to [Array.map] would capture [copy] and cost an
   allocation per record. *)
let rec copy = function
  | (Int _ | Uint _ | Float _ | Char _ | Bool _ | Enum _ | String _) as v -> v
  | Record es ->
    (match es with
     | [||] -> Record [||]
     | [| e0 |] -> Record [| copy_entry e0 |]
     | [| e0; e1 |] -> Record [| copy_entry e0; copy_entry e1 |]
     | [| e0; e1; e2 |] -> Record [| copy_entry e0; copy_entry e1; copy_entry e2 |]
     | [| e0; e1; e2; e3 |] ->
       Record [| copy_entry e0; copy_entry e1; copy_entry e2; copy_entry e3 |]
     | es ->
       let n = Array.length es in
       let out = Array.make n (copy_entry es.(0)) in
       for i = 1 to n - 1 do
         out.(i) <- copy_entry es.(i)
       done;
       Record out)
  | Array d ->
    Array { items = Array.init d.len (fun i -> copy d.items.(i)); len = d.len }

and copy_entry e = { e with v = copy e.v }

(* Array access.  [array_set] grows the array on writes one past the end so
   that transformation code can build a target list incrementally. *)

let array_len v = (dyn v).len

let array_get v i =
  let d = dyn v in
  if i < 0 || i >= d.len then type_error "array index %d out of bounds (len %d)" i d.len;
  d.items.(i)

let grow d fill wanted =
  let cap = Array.length d.items in
  if wanted > cap then begin
    let cap' = max wanted (max 4 (cap * 2)) in
    let items' = Array.make cap' fill in
    Array.blit d.items 0 items' 0 d.len;
    d.items <- items'
  end

let array_push v x =
  let d = dyn v in
  grow d x (d.len + 1);
  d.items.(d.len) <- x;
  d.len <- d.len + 1

(* An index no OCaml array can reach is refused before anything grows: a
   store a sender's code makes must not raise [Invalid_argument]. *)
let array_set ~fill v i x =
  let d = dyn v in
  if i < 0 then type_error "negative array index %d" i;
  if i >= Sys.max_array_length then type_error "array index %d exceeds the largest array length" i;
  if i >= d.len then begin
    grow d fill (i + 1);
    (* each gap slot its own copy, so a store through one shows in no
       other *)
    if i > d.len then begin
      d.items.(d.len) <- fill;
      for j = d.len + 1 to i - 1 do d.items.(j) <- copy fill done
    end;
    d.len <- i + 1
  end;
  d.items.(i) <- x

let array_truncate v n =
  let d = dyn v in
  if n < 0 || n > d.len then type_error "truncate length %d out of range" n;
  d.len <- n

(* Deep operations *)

let rec equal v1 v2 =
  match v1, v2 with
  | Int a, Int b | Uint a, Uint b -> a = b
  | Float a, Float b -> a = b
  | Char a, Char b -> a = b
  | Bool a, Bool b -> a = b
  | Enum (n1, v1), Enum (n2, v2) -> n1 = n2 && v1 = v2
  | String a, String b -> a = b
  | Record e1, Record e2 ->
    Array.length e1 = Array.length e2
    && Array.for_all2 (fun a b -> a.name = b.name && equal a.v b.v) e1 e2
  | Array d1, Array d2 ->
    d1.len = d2.len
    && (let rec go i = i >= d1.len || (equal d1.items.(i) d2.items.(i) && go (i + 1)) in
        go 0)
  | (Int _ | Uint _ | Float _ | Char _ | Bool _ | Enum _ | String _
    | Record _ | Array _), _ -> false

let rec pp ppf = function
  | Int n -> Fmt.int ppf n
  | Uint n -> Fmt.pf ppf "%uu" n
  | Float x -> Fmt.float ppf x
  | Char c -> Fmt.pf ppf "%C" c
  | Bool b -> Fmt.bool ppf b
  | Enum (n, v) -> Fmt.pf ppf "%s(%d)" n v
  | String s -> Fmt.pf ppf "%S" s
  | Record es ->
    Fmt.pf ppf "@[<hv 1>{%a}@]"
      (Fmt.array ~sep:Fmt.semi (fun ppf e -> Fmt.pf ppf "%s=%a" e.name pp e.v))
      es
  | Array d ->
    Fmt.pf ppf "@[<hv 1>[%a]@]"
      (Fmt.iter ~sep:Fmt.semi
         (fun f d -> for i = 0 to d.len - 1 do f d.items.(i) done)
         pp)
      d

let to_string v = Fmt.str "%a" pp v

(* Default values, honouring per-field default constants. *)

let of_const (c : Ptype.const) ~(ty : Ptype.basic) =
  match c, ty with
  | Cint n, Int -> Int n
  | Cint n, Uint -> Uint n
  | Cint n, Float -> Float (float_of_int n)
  | Cfloat x, Float -> Float x
  | Cchar c, Char -> Char c
  | Cbool b, Bool -> Bool b
  | Cint n, Bool -> Bool (n <> 0)
  | Cstring s, String -> String s
  | Cenum case, Enum e ->
    (match List.assoc_opt case e.cases with
     | Some n -> Enum (case, n)
     | None -> type_error "enum %s has no case %S" e.ename case)
  | Cint n, Enum e ->
    (match List.find_opt (fun (_, v) -> v = n) e.cases with
     | Some (case, _) -> Enum (case, n)
     | None -> type_error "enum %s has no case with value %d" e.ename n)
  | _ -> type_error "default constant does not fit field type"

let zero_basic : Ptype.basic -> t = function
  | Int -> Int 0
  | Uint -> Uint 0
  | Float -> Float 0.0
  | Char -> Char '\x00'
  | Bool -> Bool false
  | String -> String ""
  | Enum e ->
    (match e.cases with
     | (case, n) :: _ -> Enum (case, n)
     | [] -> type_error "enum %s has no cases" e.ename)

let rec default (ty : Ptype.t) : t =
  match ty with
  | Basic b -> zero_basic b
  | Record r -> default_record r
  | Array { size = Fixed n; elem } ->
    Array { items = Array.init n (fun _ -> default elem); len = n }
  | Array { size = Length_field _; _ } -> Array { items = [||]; len = 0 }

and default_record (r : Ptype.record) : t =
  let entry (f : Ptype.field) =
    let v =
      match f.fdefault, f.ftype with
      | Some c, Basic b -> of_const c ~ty:b
      | Some _, _ -> type_error "default constant on complex field %S" f.fname
      | None, ty -> default ty
    in
    { name = f.fname; v }
  in
  Record (Array.of_list (List.map entry r.fields))

(* Check that a value conforms to a type description. *)

let rec conforms (ty : Ptype.t) (v : t) : bool =
  match ty, v with
  | Basic Int, Int _ -> true
  | Basic Uint, Uint n -> n >= 0
  | Basic Float, Float _ -> true
  | Basic Char, Char _ -> true
  | Basic Bool, Bool _ -> true
  | Basic String, String _ -> true
  | Basic (Enum e), Enum (case, n) -> List.assoc_opt case e.cases = Some n
  | Record r, Record es ->
    List.length r.fields = Array.length es
    && List.for_all2
      (fun (f : Ptype.field) (e : entry) -> f.fname = e.name && conforms f.ftype e.v)
      r.fields (Array.to_list es)
  | Array { elem; size }, Array d ->
    (match size with Fixed n -> d.len = n | Length_field _ -> true)
    && (let rec go i = i >= d.len || (conforms elem d.items.(i) && go (i + 1)) in
        go 0)
  | (Basic _ | Record _ | Array _), _ -> false

(* Variable-array length fields must agree with the actual array lengths.
   A sync plan, compiled once per record format, rewrites those integer
   fields from the arrays (encoders require it, and the morphing pipeline
   runs one after every transformation).  Field positions are resolved up
   front; the plan touches only length fields and descends only into
   fields and array elements whose type holds a variable array somewhere
   below.  A length field that already holds the right count is left
   alone, so syncing a message whose lengths agree allocates nothing. *)

(* The entry holding length field [name]: position [j] from the format
   when the value agrees with it, else a lookup by name ([j] is [None]
   when the format itself has no such field). *)
let length_entry es j name =
  match j with
  | Some j when j < Array.length es && String.equal es.(j).name name -> es.(j)
  | Some _ | None ->
    (match field_index es name with
     | Some j -> es.(j)
     | None -> type_error "missing length field %S" name)

let set_length e n =
  match e.v with
  | Int m when m = n -> ()
  | Uint m when m = n -> ()
  | Uint _ -> e.v <- Uint n
  | _ -> e.v <- Int n

let rec record_sync (r : Ptype.record) : (entry array -> unit) option =
  let field_steps i (f : Ptype.field) =
    match f.ftype with
    | Basic _ -> []
    | Record r' ->
      (match record_sync r' with
       | None -> []
       | Some p -> [ (fun es -> p (entries es.(i).v)) ])
    | Array { elem; size } ->
      let len =
        match size with
        | Fixed _ -> []
        | Length_field name ->
          let j = Ptype.field_index r name in
          [ (fun es -> set_length (length_entry es j name) (array_len es.(i).v)) ]
      in
      let elems =
        match elem with
        | Record r' ->
          (match record_sync r' with
           | None -> []
           | Some p ->
             [ (fun es ->
                   let d = dyn es.(i).v in
                   for k = 0 to d.len - 1 do
                     p (entries d.items.(k))
                   done) ])
        | Basic _ | Array _ -> []
      in
      len @ elems
  in
  match Array.of_list (List.concat (List.mapi field_steps r.fields)) with
  | [||] -> None
  | [| s |] -> Some s
  | steps ->
    Some
      (fun es ->
         for k = 0 to Array.length steps - 1 do
           steps.(k) es
         done)

let compile_sync (r : Ptype.record) : t -> unit =
  match record_sync r with
  | None -> fun v -> ignore (entries v)
  | Some p -> fun v -> p (entries v)

let sync_lengths (r : Ptype.record) (v : t) : unit = compile_sync r v
