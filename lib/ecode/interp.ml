(* A naive tree-walking interpreter for Ecode.

   Deliberately unspecialised — names are resolved through hash tables and
   operators dispatch on runtime value shapes on every execution — so that
   it serves as the "no code generation" baseline for the ablation
   benchmark (DESIGN.md, A1).  Semantics match {!Compile} on well-typed
   programs; equivalence is property-tested.

   One approximation: assigning a plain integer into an enum-typed field
   keeps the target's current case name when the numeric value is unchanged
   and otherwise stores an anonymous case.  The compiled version, which
   knows the enum declaration, resolves the proper case name.  Transform
   code that assigns enums from enums is unaffected. *)

open Pbio

exception Runtime_error of string

let runtime_error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

exception Brk
exception Cont
exception Ret
exception Retv of Value.t

type scope = (string, Value.t ref) Hashtbl.t

type env = {
  mutable scopes : scope list;
  funs : (string, Ast.fundef) Hashtbl.t;
}

let enter env = env.scopes <- Hashtbl.create 8 :: env.scopes

let leave env =
  match env.scopes with
  | [] -> assert false
  | _ :: rest -> env.scopes <- rest

let lookup env name : Value.t ref =
  let rec go = function
    | [] -> runtime_error "unknown variable %S" name
    | s :: rest ->
      (match Hashtbl.find_opt s name with Some r -> r | None -> go rest)
  in
  go env.scopes

let declare env name v =
  match env.scopes with
  | s :: _ -> Hashtbl.replace s name (ref v)
  | [] -> assert false

(* --- dynamic operator semantics ------------------------------------------ *)

let is_float = function Value.Float _ -> true | _ -> false
let is_string = function Value.String _ -> true | _ -> false

let arith op (a : Value.t) (b : Value.t) : Value.t =
  match op with
  | Ast.Add when is_string a || is_string b ->
    Value.String (Coerce.string_of_value a ^ Coerce.string_of_value b)
  | Add | Sub | Mul | Div ->
    if is_float a || is_float b then begin
      let x = Value.to_float a and y = Value.to_float b in
      Value.Float
        (match op with
         | Add -> x +. y | Sub -> x -. y | Mul -> x *. y | Div -> x /. y
         | _ -> assert false)
    end
    else begin
      let x = Value.to_int a and y = Value.to_int b in
      if (op = Div) && y = 0 then runtime_error "division by zero";
      Value.Int
        (match op with
         | Add -> x + y | Sub -> x - y | Mul -> x * y | Div -> x / y
         | _ -> assert false)
    end
  | Mod ->
    let y = Value.to_int b in
    if y = 0 then runtime_error "modulo by zero";
    Value.Int (Value.to_int a mod y)
  | Band -> Value.Int (Value.to_int a land Value.to_int b)
  | Bor -> Value.Int (Value.to_int a lor Value.to_int b)
  | Bxor -> Value.Int (Value.to_int a lxor Value.to_int b)
  | Shl -> Value.Int (Value.to_int a lsl (Value.to_int b land 63))
  | Shr -> Value.Int (Value.to_int a asr (Value.to_int b land 63))
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> assert false

let compare_values op (a : Value.t) (b : Value.t) : bool =
  match a, b with
  | (Value.Record _ | Value.Array _), _ | _, (Value.Record _ | Value.Array _) ->
    (match op with
     | Ast.Eq -> Value.equal a b
     | Ne -> not (Value.equal a b)
     | _ -> runtime_error "only == and != apply to structured values")
  | Value.String x, Value.String y ->
    (match op with
     | Ast.Eq -> x = y | Ne -> x <> y | Lt -> x < y
     | Le -> x <= y | Gt -> x > y | Ge -> x >= y
     | _ -> assert false)
  | _ ->
    if is_float a || is_float b then begin
      let x = Value.to_float a and y = Value.to_float b in
      match op with
      | Ast.Eq -> x = y | Ne -> x <> y | Lt -> x < y
      | Le -> x <= y | Gt -> x > y | Ge -> x >= y
      | _ -> assert false
    end
    else begin
      let x = Value.to_int a and y = Value.to_int b in
      match op with
      | Ast.Eq -> x = y | Ne -> x <> y | Lt -> x < y
      | Le -> x <= y | Gt -> x > y | Ge -> x >= y
      | _ -> assert false
    end

(* Coerce [v] so that it fits where [model] (the location's current value)
   lives — the dynamic analogue of the typed assignment conversions. *)
let coerce_to_model (model : Value.t) (v : Value.t) : Value.t =
  match model, v with
  | Value.Int _, _ -> Value.Int (match v with
      | Value.Float x -> int_of_float x
      | _ -> Value.to_int v)
  | Value.Uint _, _ ->
    let n = match v with Value.Float x -> int_of_float x | _ -> Value.to_int v in
    Value.Uint (n land 0xFFFF_FFFF)
  | Value.Float _, _ -> Value.Float (Value.to_float v)
  | Value.Char _, _ ->
    (match v with
     | Value.Char _ -> v
     | _ -> Value.Char (Char.chr (Value.to_int v land 0xff)))
  | Value.Bool _, _ -> Value.Bool (Value.to_bool v)
  | Value.String _, Value.String _ -> v
  | Value.String _, _ -> runtime_error "cannot assign non-string to string"
  | Value.Enum (case, n), _ ->
    (match v with
     | Value.Enum _ -> v
     | _ ->
       let m = Value.to_int v in
       if m = n then Value.Enum (case, n) else Value.Enum ("", m))
  | (Value.Record _ | Value.Array _), (Value.Record _ | Value.Array _) -> Value.copy v
  | (Value.Record _ | Value.Array _), _ ->
    runtime_error "cannot assign scalar to structured value"

let default_for_dtyp : Ast.dtyp -> Value.t = function
  | Dint -> Value.Int 0
  | Duint -> Value.Uint 0
  | Dfloat -> Value.Float 0.0
  | Dchar -> Value.Char '\x00'
  | Dbool -> Value.Bool false
  | Dstring -> Value.String ""

(* --- lvalues ------------------------------------------------------------- *)

(* Resolve an lvalue expression to (get, set) against the live data.
   Containers along the path are evaluated in lvalue context: indexing one
   past the end of an array grows it (using the array's model element), so
   code like [old.list[n].f = x] extends the list just as the compiled
   engine does. *)
let rec resolve_lval env (e : Ast.expr) : (unit -> Value.t) * (Value.t -> unit) =
  match e.Ast.e with
  | Ident name ->
    let r = lookup env name in
    ((fun () -> !r), fun v -> r := coerce_to_model !r v)
  | Field (base, fname) ->
    let container = eval_container env base in
    ( (fun () -> Value.get_field container fname),
      fun v ->
        let model = Value.get_field container fname in
        Value.set_field container fname (coerce_to_model model v) )
  | Index (base, ix) ->
    let container = eval_container env base in
    let i = Value.to_int (eval env ix) in
    ( (fun () -> Value.array_get container i),
      fun v ->
        let model =
          if i < Value.array_len container then Value.array_get container i
          else Option.value (Value.dyn container).Value.model ~default:v
        in
        Value.array_set container i (coerce_to_model model v) )
  | _ -> runtime_error "expression is not assignable"

(* Evaluate the container part of an lvalue path, growing arrays when an
   index step lands one past the end. *)
and eval_container env (e : Ast.expr) : Value.t =
  match e.Ast.e with
  | Field (base, fname) -> Value.get_field (eval_container env base) fname
  | Index (base, ix) ->
    let container = eval_container env base in
    let i = Value.to_int (eval env ix) in
    if i = Value.array_len container then
      Value.array_set container i (Value.fill_for (Value.dyn container));
    Value.array_get container i
  | _ -> eval env e

(* --- expressions ---------------------------------------------------------- *)

and eval env (e : Ast.expr) : Value.t =
  match e.Ast.e with
  | Int_lit n -> Value.Int n
  | Float_lit x -> Value.Float x
  | Char_lit c -> Value.Char c
  | String_lit s -> Value.String s
  | Bool_lit b -> Value.Bool b
  | Ident name -> !(lookup env name)
  | Field (base, fname) -> Value.get_field (eval env base) fname
  | Index (base, ix) -> Value.array_get (eval env base) (Value.to_int (eval env ix))
  | Unop (Neg, a) ->
    (match eval env a with
     | Value.Float x -> Value.Float (-.x)
     | v -> Value.Int (-Value.to_int v))
  | Unop (Not, a) -> Value.Bool (not (Value.to_bool (eval env a)))
  | Unop (Bnot, a) -> Value.Int (lnot (Value.to_int (eval env a)))
  | Binop (And, a, b) ->
    Value.Bool (Value.to_bool (eval env a) && Value.to_bool (eval env b))
  | Binop (Or, a, b) ->
    Value.Bool (Value.to_bool (eval env a) || Value.to_bool (eval env b))
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) ->
    Value.Bool (compare_values op (eval env a) (eval env b))
  | Binop (op, a, b) -> arith op (eval env a) (eval env b)
  | Cond (c, a, b) -> if Value.to_bool (eval env c) then eval env a else eval env b
  | Call (name, args) ->
    (match Hashtbl.find_opt env.funs name with
     | Some f -> eval_user_call env f (List.map (eval env) args)
     | None -> eval_call env name (List.map (eval env) args))
  | Assign (op, lhs, rhs) ->
    let get, set = resolve_lval env lhs in
    let v = eval env rhs in
    let v =
      match op with
      | Set -> v
      | Add_eq -> arith Ast.Add (get ()) v
      | Sub_eq -> arith Ast.Sub (get ()) v
      | Mul_eq -> arith Ast.Mul (get ()) v
      | Div_eq -> arith Ast.Div (get ()) v
      | Mod_eq -> arith Ast.Mod (get ()) v
    in
    set v;
    get ()
  | Incr (kind, lhs) ->
    let get, set = resolve_lval env lhs in
    let old = get () in
    let delta = match kind with Pre_incr | Post_incr -> 1 | Pre_decr | Post_decr -> -1 in
    let nv =
      match old with
      | Value.Float x -> Value.Float (x +. float_of_int delta)
      | v -> Value.Int (Value.to_int v + delta)
    in
    set nv;
    (match kind with
     | Pre_incr | Pre_decr -> get ()
     | Post_incr | Post_decr -> old)

and eval_user_call env (f : Ast.fundef) (args : Value.t list) : Value.t =
  if List.length args <> List.length f.Ast.fparams then
    runtime_error "%s expects %d arguments, got %d" f.Ast.fdname
      (List.length f.Ast.fparams) (List.length args);
  let fenv = { scopes = [ Hashtbl.create 8 ]; funs = env.funs } in
  List.iter2
    (fun (d, name) arg -> declare fenv name (coerce_to_model (default_for_dtyp d) arg))
    f.Ast.fparams args;
  let fallthrough =
    match f.Ast.fret with
    | Some d -> default_for_dtyp d
    | None -> Value.Int 0 (* void: never observed *)
  in
  try
    List.iter (exec fenv) f.Ast.fbody;
    fallthrough
  with
  | Ret -> fallthrough
  | Retv v ->
    (match f.Ast.fret with
     | Some d -> coerce_to_model (default_for_dtyp d) v
     | None -> fallthrough)

and eval_call env name (args : Value.t list) : Value.t =
  ignore env;

  match name, args with
  | ("int" | "long"), [ v ] ->
    Value.Int (match v with Value.Float x -> int_of_float x | _ -> Value.to_int v)
  | "unsigned", [ v ] ->
    let n = match v with Value.Float x -> int_of_float x | _ -> Value.to_int v in
    Value.Uint (n land 0xFFFF_FFFF)
  | ("float" | "double"), [ v ] -> Value.Float (Value.to_float v)
  | "char", [ v ] -> Value.Char (Char.chr (Value.to_int v land 0xff))
  | "bool", [ v ] -> Value.Bool (Value.to_bool v)
  | "string", [ v ] -> Value.String (Coerce.string_of_value v)
  | "strlen", [ Value.String s ] -> Value.Int (String.length s)
  | "len", [ (Value.Array _ as v) ] -> Value.Int (Value.array_len v)
  | "len", [ Value.String s ] -> Value.Int (String.length s)
  | "abs", [ Value.Float x ] -> Value.Float (Float.abs x)
  | "abs", [ v ] -> Value.Int (abs (Value.to_int v))
  | "fabs", [ v ] -> Value.Float (Float.abs (Value.to_float v))
  | "min", [ a; b ] when is_float a || is_float b ->
    Value.Float (Float.min (Value.to_float a) (Value.to_float b))
  | "min", [ a; b ] -> Value.Int (min (Value.to_int a) (Value.to_int b))
  | "max", [ a; b ] when is_float a || is_float b ->
    Value.Float (Float.max (Value.to_float a) (Value.to_float b))
  | "max", [ a; b ] -> Value.Int (max (Value.to_int a) (Value.to_int b))
  | "floor", [ v ] -> Value.Float (Float.floor (Value.to_float v))
  | "ceil", [ v ] -> Value.Float (Float.ceil (Value.to_float v))
  | "sqrt", [ v ] -> Value.Float (Float.sqrt (Value.to_float v))
  | "pow", [ a; b ] -> Value.Float (Float.pow (Value.to_float a) (Value.to_float b))
  | _, _ -> runtime_error "unknown function %S (arity %d)" name (List.length args)

(* --- statements ------------------------------------------------------------ *)

and exec env (s : Ast.stmt) : unit =
  match s.Ast.s with
  | Empty -> ()
  | Expr e -> ignore (eval env e)
  | Decl (dt, decls) ->
    List.iter
      (fun (d : Ast.decl) ->
         let v =
           match d.dinit with
           | None -> default_for_dtyp dt
           | Some e -> coerce_to_model (default_for_dtyp dt) (eval env e)
         in
         declare env d.dname v)
      decls
  | If (c, t, e) ->
    if Value.to_bool (eval env c) then scoped env t
    else Option.iter (scoped env) e
  | While (c, body) ->
    (try
       while Value.to_bool (eval env c) do
         try scoped env body with Cont -> ()
       done
     with Brk -> ())
  | Do_while (body, c) ->
    (try
       let continue_ = ref true in
       while !continue_ do
         (try scoped env body with Cont -> ());
         continue_ := Value.to_bool (eval env c)
       done
     with Brk -> ())
  | For (init, cond, step, body) ->
    enter env;
    Option.iter (exec env) init;
    (try
       let check () = match cond with Some e -> Value.to_bool (eval env e) | None -> true in
       while check () do
         (try scoped env body with Cont -> ());
         Option.iter (fun e -> ignore (eval env e)) step
       done
     with Brk -> ());
    leave env
  | Switch (scrutinee, arms) ->
    let v = Value.to_int (eval env scrutinee) in
    let n = List.length arms in
    let idx =
      let rec by_label i = function
        | [] -> None
        | (a : Ast.switch_arm) :: rest ->
          if List.mem v a.labels then Some i else by_label (i + 1) rest
      in
      match by_label 0 arms with
      | Some i -> Some i
      | None ->
        let rec by_default i = function
          | [] -> None
          | (a : Ast.switch_arm) :: rest ->
            if a.has_default then Some i else by_default (i + 1) rest
        in
        by_default 0 arms
    in
    (match idx with
     | None -> ()
     | Some start ->
       enter env;
       let finish () = leave env in
       (try
          for j = start to n - 1 do
            List.iter (exec env) (List.nth arms j).Ast.body
          done;
          finish ()
        with
        | Brk -> finish ()
        | e -> finish (); raise e))
  | Block ss ->
    enter env;
    (try List.iter (exec env) ss with e -> leave env; raise e);
    leave env
  | Return e ->
    (match e with
     | None -> raise Ret
     | Some e -> raise (Retv (eval env e)))
  | Break -> raise Brk
  | Continue -> raise Cont

and scoped env s =
  enter env;
  (try exec env s with e -> leave env; raise e);
  leave env

let run ~(params : (string * Value.t) list) (prog : Ast.prog) : unit =
  let funs = Hashtbl.create 8 in
  List.iter (fun (f : Ast.fundef) -> Hashtbl.replace funs f.Ast.fdname f) prog.Ast.funs;
  let env = { scopes = [ Hashtbl.create 8 ]; funs } in
  List.iter (fun (name, v) -> declare env name v) params;
  try List.iter (exec env) prog.Ast.main with Ret | Retv _ -> ()
