(* Ecode's assignment coercions, shared by the Ecode closure compiler and
   fused codec plans: one implementation, so a collapsed chain coerces
   exactly as its hops would have. *)

type t =
  | To_int
  | To_uint
  | To_float
  | To_char
  | To_bool
  | To_string
  | To_enum of Ptype.enum

exception Runtime_error of string

let runtime_error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

(* Booleans are two shared constants, never a fresh box per coercion. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

let u32 n = n land 0xFFFF_FFFF

let box_int (ty : Ptype.t) : int -> Value.t =
  match ty with
  | Basic Uint -> fun n -> Value.Uint (u32 n)
  | Basic Char -> fun n -> Value.Char (Char.chr (n land 0xff))
  | Basic Bool -> fun n -> vbool (n <> 0)
  | Basic (Enum en) ->
    fun n ->
      (match List.find_opt (fun (_, v) -> v = n) en.Ptype.cases with
       | Some (case, _) -> Value.Enum (case, n)
       | None -> runtime_error "no case of enum %s has value %d" en.Ptype.ename n)
  | _ -> fun n -> Value.Int n

let string_of_value (v : Value.t) : string =
  match v with
  | String s -> s
  | Int n | Uint n -> string_of_int n
  | Float x ->
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%g" x
  | Char c -> String.make 1 c
  | Bool b -> if b then "true" else "false"
  | Enum (case, _) -> case
  | Record _ | Array _ -> Value.to_string v

let compile ~(from : Ptype.t) (co : t) : Value.t -> Value.t =
  match co, from with
  | To_int, Basic Float -> fun v -> Value.Int (int_of_float (Value.to_float v))
  | To_int, _ -> fun v -> Value.Int (Value.to_int v)
  | To_uint, Basic Float -> fun v -> Value.Uint (u32 (int_of_float (Value.to_float v)))
  | To_uint, _ -> fun v -> Value.Uint (u32 (Value.to_int v))
  | To_float, _ -> fun v -> Value.Float (Value.to_float v)
  | To_char, _ -> fun v -> Value.Char (Char.chr (Value.to_int v land 0xff))
  | To_bool, _ -> fun v -> vbool (Value.to_bool v)
  | To_string, _ -> fun v -> Value.String (string_of_value v)
  | To_enum en, _ ->
    let box = box_int (Basic (Enum en)) in
    fun v -> box (Value.to_int v)
