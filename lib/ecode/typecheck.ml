(* Type checking and lowering of Ecode to a resolved, typed AST.

   This pass is the front half of "dynamic code generation": every
   identifier becomes a frame slot, every field access becomes an index into
   the record's entry array, every operator is specialised to its operand
   class (int / float / string / deep value), and every implicit C
   conversion becomes an explicit coercion node.  The back half
   ({!Compile}) turns the result into closures with no name lookups left. *)

open Pbio

type ty = Ptype.t

(* Coercions made explicit during checking; {!Pbio.Coerce} runs them. *)
type coercion = Coerce.t =
  | To_int
  | To_uint (* wraps to 32 bits, like C unsigned conversion *)
  | To_float
  | To_char
  | To_bool
  | To_string
  | To_enum of Ptype.enum

type arith =
  | Iadd | Isub | Imul | Idiv | Imod
  | Iband | Ibor | Ibxor | Ishl | Ishr
  | Fadd | Fsub | Fmul | Fdiv
  | Sconcat

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type cmp_kind =
  | Kint
  | Kfloat
  | Kstring
  | Kvalue (* deep structural comparison; == and != only *)

type builtin =
  | Bstrlen
  | Blen
  | Babs
  | Bfabs
  | Bmin_int | Bmax_int
  | Bmin_float | Bmax_float
  | Bfloor | Bceil | Bsqrt | Bpow

type texpr = {
  ty : ty;
  n : tnode;
}

and tnode =
  | Tconst of Value.t
  | Tlocal of int
  | Tparam of int
  | Tfield of texpr * int
  | Tindex of texpr * texpr
  | Tarith of arith * texpr * texpr
  | Tcmp of cmp * cmp_kind * texpr * texpr
  | Tand of texpr * texpr
  | Tor of texpr * texpr
  | Tneg of texpr
  | Tfneg of texpr
  | Tnot of texpr
  | Tbnot of texpr
  | Tcond of texpr * texpr * texpr
  | Tcall of builtin * texpr list
  | Tcoerce of coercion * texpr
  | Tassign of tlval * texpr
  | Tupdate of { lv : tlval; rhs : texpr; rslot : int; cur : int; value : texpr }
      (* [lv op= rhs]: the path of [lv] is resolved once, then [rhs] is
         evaluated into the hidden local [rslot], the current value of
         [lv] read into the hidden local [cur], and [value] (computed from
         those two locals) stored *)
  | Tincr of { pre : bool; delta : int; is_float : bool; lv : tlval }
  | Tufcall of int * texpr list (* user-defined function, by index *)

and tlval = {
  base : lbase;
  steps : lstep list;
  lty : ty;
}

and lbase =
  | Lbase_local of int
  | Lbase_param of int

and lstep =
  | Sfield of int
  | Sindex of texpr * ty (* index expression, element type (autogrow fill) *)

type tstmt =
  | TSexpr of texpr
  | TSif of texpr * tstmt * tstmt option
  | TSwhile of texpr * tstmt
  | TSdo of tstmt * texpr
  | TSfor of tstmt option * texpr option * texpr option * tstmt
  | TSswitch of texpr * tarm list
  | TSblock of tstmt list
  | TSreturn of texpr option
  | TSbreak
  | TScontinue
  | TSnop

and tarm = {
  t_labels : int list;
  t_default : bool;
  t_body : tstmt list;
}

type tfun = {
  tf_name : string;
  tf_params : ty list;
  tf_ret : ty option; (* None = void *)
  tf_nlocals : int;
  tf_body : tstmt list;
}

type tprog = {
  body : tstmt list;
  nlocals : int;
  params : (string * ty) list;
  tfuns : tfun array;
}

exception Error of string * Ast.loc

let error loc fmt = Fmt.kstr (fun s -> raise (Error (s, loc))) fmt

(* --- environment --------------------------------------------------------- *)

type binding =
  | Blocal of int * ty
  | Bparam of int * ty

type fsig = {
  fs_idx : int;
  fs_params : ty list;
  fs_ret : ty option;
}

type env = {
  mutable scopes : (string * binding) list list;
  mutable nlocals : int;
  params : (string * ty) list;
  funs : (string * fsig) list;
  in_function : ty option option;
  (* [None] in the main body; [Some ret] inside a function returning [ret]
     ([Some None] = void) *)
}

let enter_scope env = env.scopes <- [] :: env.scopes

let leave_scope env =
  match env.scopes with
  | [] -> assert false
  | _ :: rest -> env.scopes <- rest

let lookup env name =
  let rec go = function
    | [] -> None
    | scope :: rest ->
      (match List.assoc_opt name scope with Some b -> Some b | None -> go rest)
  in
  go env.scopes

(* A frame slot no name can reach (compound assignments stage values in
   them). *)
let fresh_slot env =
  let slot = env.nlocals in
  env.nlocals <- slot + 1;
  slot

let declare_local env loc name ty =
  (match env.scopes with
   | scope :: _ when List.mem_assoc name scope ->
     error loc "variable %S already declared in this scope" name
   | _ -> ());
  let slot = fresh_slot env in
  (match env.scopes with
   | scope :: rest -> env.scopes <- ((name, Blocal (slot, ty)) :: scope) :: rest
   | [] -> assert false);
  slot

(* --- type classification ------------------------------------------------- *)

type cls =
  | Cint (* int, unsigned, char, bool, enum *)
  | Cfloat
  | Cstring
  | Cother

let cls_of (ty : ty) : cls =
  match ty with
  | Basic (Int | Uint | Char | Bool | Enum _) -> Cint
  | Basic Float -> Cfloat
  | Basic String -> Cstring
  | Record _ | Array _ -> Cother

let ty_of_dtyp : Ast.dtyp -> ty = function
  | Dint -> Ptype.int_
  | Duint -> Ptype.uint
  | Dfloat -> Ptype.float_
  | Dchar -> Ptype.char_
  | Dbool -> Ptype.bool_
  | Dstring -> Ptype.string_

(* Structural shape equality, ignoring record and enum names: whole-record
   assignment between versions only cares about layout. *)
let rec same_shape (t1 : ty) (t2 : ty) : bool =
  match t1, t2 with
  | Basic (Enum _), Basic (Enum _) -> true
  | Basic b1, Basic b2 -> b1 = b2
  | Record r1, Record r2 ->
    List.length r1.fields = List.length r2.fields
    && List.for_all2
      (fun (f1 : Ptype.field) (f2 : Ptype.field) ->
         f1.fname = f2.fname && same_shape f1.ftype f2.ftype)
      r1.fields r2.fields
  | Array a1, Array a2 -> same_shape a1.elem a2.elem
  | (Basic _ | Record _ | Array _), _ -> false

(* Insert a coercion from [e.ty] to [want]; error when none exists. *)
let rec coerce loc (e : texpr) (want : ty) : texpr =
  if same_shape e.ty want && cls_of e.ty <> Cint then
    (* records, arrays, strings, floats: shape equality is enough *)
    { e with ty = want }
  else
    match e.ty, want with
    | Basic b1, Basic b2 when b1 = b2 -> e
    | Basic (Int | Uint | Char | Bool | Enum _), Basic Int ->
      { ty = want; n = Tcoerce (To_int, e) }
    | Basic (Int | Uint | Char | Bool | Enum _), Basic Uint ->
      { ty = want; n = Tcoerce (To_uint, e) }
    | Basic (Int | Uint | Char | Bool | Enum _ | Float), Basic Float ->
      { ty = want; n = Tcoerce (To_float, e) }
    | Basic Float, Basic Bool -> { ty = want; n = Tcoerce (To_bool, e) }
    | Basic Float, Basic (Int | Enum _ | Uint | Char) ->
      let as_int = { ty = Ptype.int_; n = Tcoerce (To_int, e) } in
      if want = Ptype.int_ then as_int else coerce loc as_int want
    | Basic (Int | Uint | Bool | Enum _), Basic Char ->
      { ty = want; n = Tcoerce (To_char, e) }
    | Basic (Int | Uint | Char | Enum _ | Bool), Basic Bool ->
      { ty = want; n = Tcoerce (To_bool, e) }
    | Basic (Int | Uint | Char | Bool), Basic (Enum en) ->
      { ty = want; n = Tcoerce (To_enum en, e) }
    | Basic (Enum _), Basic (Enum en) ->
      let as_int = { ty = Ptype.int_; n = Tcoerce (To_int, e) } in
      { ty = want; n = Tcoerce (To_enum en, as_int) }
    | _ ->
      error loc "cannot convert %a to %a" Ptype.pp_type e.ty Ptype.pp_type want

let to_bool loc (e : texpr) : texpr =
  match cls_of e.ty with
  | Cint | Cfloat -> coerce loc e Ptype.bool_
  | Cstring | Cother -> error loc "condition must be numeric, got %a" Ptype.pp_type e.ty

let to_string_expr (e : texpr) : texpr =
  match e.ty with
  | Basic String -> e
  | _ -> { ty = Ptype.string_; n = Tcoerce (To_string, e) }

(* --- expressions --------------------------------------------------------- *)

(* Field [fname] of [r]: its position and type. *)
let field loc (r : Ptype.record) fname =
  match Ptype.field_index r fname with
  | Some i -> (i, (List.nth r.fields i).Ptype.ftype)
  | None -> error loc "record %s has no field %S" r.Ptype.rname fname

let rec check_expr env (e : Ast.expr) : texpr =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Int_lit n -> { ty = Ptype.int_; n = Tconst (Value.Int n) }
  | Float_lit x -> { ty = Ptype.float_; n = Tconst (Value.Float x) }
  | Char_lit c -> { ty = Ptype.char_; n = Tconst (Value.Char c) }
  | String_lit s -> { ty = Ptype.string_; n = Tconst (Value.String s) }
  | Bool_lit b -> { ty = Ptype.bool_; n = Tconst (Value.Bool b) }
  | Ident name ->
    (match lookup env name with
     | Some (Blocal (slot, ty)) -> { ty; n = Tlocal slot }
     | Some (Bparam (slot, ty)) -> { ty; n = Tparam slot }
     | None -> error loc "unknown variable %S" name)
  | Field (base, fname) ->
    let tb = check_expr env base in
    (match tb.ty with
     | Record r ->
       let idx, fty = field loc r fname in
       { ty = fty; n = Tfield (tb, idx) }
     | ty -> error loc "field access %S on non-record %a" fname Ptype.pp_type ty)
  | Index (base, idx) ->
    let tb = check_expr env base in
    (match tb.ty with
     | Array a ->
       let ti = coerce loc (check_expr env idx) Ptype.int_ in
       { ty = a.elem; n = Tindex (tb, ti) }
     | ty -> error loc "indexing non-array %a" Ptype.pp_type ty)
  | Unop (Neg, a) ->
    let ta = check_expr env a in
    (match cls_of ta.ty with
     | Cint -> { ty = Ptype.int_; n = Tneg (coerce loc ta Ptype.int_) }
     | Cfloat -> { ty = Ptype.float_; n = Tfneg ta }
     | Cstring | Cother -> error loc "cannot negate %a" Ptype.pp_type ta.ty)
  | Unop (Not, a) ->
    let ta = to_bool loc (check_expr env a) in
    { ty = Ptype.bool_; n = Tnot ta }
  | Unop (Bnot, a) ->
    let ta = coerce loc (check_expr env a) Ptype.int_ in
    { ty = Ptype.int_; n = Tbnot ta }
  | Binop (op, a, b) -> check_binop env loc op a b
  | Cond (c, a, b) ->
    let tc = to_bool loc (check_expr env c) in
    let ta = check_expr env a in
    let tb = check_expr env b in
    let ty =
      match cls_of ta.ty, cls_of tb.ty with
      | Cfloat, (Cint | Cfloat) | Cint, Cfloat -> Ptype.float_
      | Cint, Cint -> Ptype.int_
      | _ ->
        if same_shape ta.ty tb.ty then ta.ty
        else
          error loc "branches of ?: have incompatible types %a and %a"
            Ptype.pp_type ta.ty Ptype.pp_type tb.ty
    in
    let ta = if cls_of ty = Cother || cls_of ty = Cstring then ta else coerce loc ta ty in
    let tb = if cls_of ty = Cother || cls_of ty = Cstring then tb else coerce loc tb ty in
    { ty; n = Tcond (tc, ta, tb) }
  | Call (name, args) -> check_call env loc name args
  | Assign (op, lhs, rhs) ->
    let lv = check_lval env lhs in
    let trhs = check_expr env rhs in
    (match op with
     | Set -> { ty = lv.lty; n = Tassign (lv, convert_for_assign loc trhs lv.lty) }
     | Add_eq | Sub_eq | Mul_eq | Div_eq | Mod_eq ->
       let binop : Ast.binop =
         match op with
         | Add_eq -> Add | Sub_eq -> Sub | Mul_eq -> Mul
         | Div_eq -> Div | Mod_eq -> Mod
         | Set -> assert false
       in
       let rslot = fresh_slot env and cur = fresh_slot env in
       let combined =
         combine_arith loc binop { ty = lv.lty; n = Tlocal cur } { ty = trhs.ty; n = Tlocal rslot }
       in
       let value = convert_for_assign loc combined lv.lty in
       { ty = lv.lty; n = Tupdate { lv; rhs = trhs; rslot; cur; value } })
  | Incr (kind, lhs) ->
    let lv = check_lval env lhs in
    let is_float =
      match cls_of lv.lty with
      | Cint -> false
      | Cfloat -> true
      | Cstring | Cother ->
        error loc "++/-- requires a numeric variable, got %a" Ptype.pp_type lv.lty
    in
    let pre, delta =
      match kind with
      | Pre_incr -> (true, 1)
      | Pre_decr -> (true, -1)
      | Post_incr -> (false, 1)
      | Post_decr -> (false, -1)
    in
    { ty = lv.lty; n = Tincr { pre; delta; is_float; lv } }

and convert_for_assign loc (rhs : texpr) (want : ty) : texpr =
  match cls_of want, cls_of rhs.ty with
  | Cother, Cother ->
    if same_shape rhs.ty want then rhs
    else
      error loc "cannot assign %a to %a (different structure)"
        Ptype.pp_type rhs.ty Ptype.pp_type want
  | Cstring, Cstring -> rhs
  | Cstring, _ -> error loc "cannot assign %a to string" Ptype.pp_type rhs.ty
  | _, _ -> coerce loc rhs want

and combine_arith env_loc op (ta : texpr) (tb : texpr) : texpr =
  let loc = env_loc in
  match op with
  | Ast.Add when cls_of ta.ty = Cstring || cls_of tb.ty = Cstring ->
    { ty = Ptype.string_; n = Tarith (Sconcat, to_string_expr ta, to_string_expr tb) }
  | Add | Sub | Mul | Div ->
    (match cls_of ta.ty, cls_of tb.ty with
     | Cfloat, (Cint | Cfloat) | Cint, Cfloat ->
       let fa = coerce loc ta Ptype.float_ and fb = coerce loc tb Ptype.float_ in
       let a = match op with
         | Add -> Fadd | Sub -> Fsub | Mul -> Fmul | Div -> Fdiv
         | _ -> assert false
       in
       { ty = Ptype.float_; n = Tarith (a, fa, fb) }
     | Cint, Cint ->
       let ia = coerce loc ta Ptype.int_ and ib = coerce loc tb Ptype.int_ in
       let a = match op with
         | Add -> Iadd | Sub -> Isub | Mul -> Imul | Div -> Idiv
         | _ -> assert false
       in
       { ty = Ptype.int_; n = Tarith (a, ia, ib) }
     | _ ->
       error loc "operator %s requires numeric operands, got %a and %a"
         (Ast.binop_name op) Ptype.pp_type ta.ty Ptype.pp_type tb.ty)
  | Mod | Band | Bor | Bxor | Shl | Shr ->
    (match cls_of ta.ty, cls_of tb.ty with
     | Cint, Cint ->
       let ia = coerce loc ta Ptype.int_ and ib = coerce loc tb Ptype.int_ in
       let a = match op with
         | Mod -> Imod | Band -> Iband | Bor -> Ibor | Bxor -> Ibxor
         | Shl -> Ishl | Shr -> Ishr
         | _ -> assert false
       in
       { ty = Ptype.int_; n = Tarith (a, ia, ib) }
     | _ ->
       error loc "operator %s requires integer operands" (Ast.binop_name op))
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> assert false

and check_binop env loc (op : Ast.binop) a b : texpr =
  let ta = check_expr env a in
  let tb = check_expr env b in
  match op with
  | Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Shl | Shr ->
    combine_arith loc op ta tb
  | And ->
    { ty = Ptype.bool_; n = Tand (to_bool loc ta, to_bool loc tb) }
  | Or ->
    { ty = Ptype.bool_; n = Tor (to_bool loc ta, to_bool loc tb) }
  | Eq | Ne | Lt | Le | Gt | Ge ->
    let cmp = match op with
      | Eq -> Ceq | Ne -> Cne | Lt -> Clt | Le -> Cle | Gt -> Cgt | Ge -> Cge
      | _ -> assert false
    in
    let node =
      match cls_of ta.ty, cls_of tb.ty with
      | Cfloat, (Cint | Cfloat) | Cint, Cfloat ->
        Tcmp (cmp, Kfloat, coerce loc ta Ptype.float_, coerce loc tb Ptype.float_)
      | Cint, Cint ->
        Tcmp (cmp, Kint, coerce loc ta Ptype.int_, coerce loc tb Ptype.int_)
      | Cstring, Cstring -> Tcmp (cmp, Kstring, ta, tb)
      | Cother, Cother when same_shape ta.ty tb.ty ->
        (match cmp with
         | Ceq | Cne -> Tcmp (cmp, Kvalue, ta, tb)
         | _ -> error loc "only == and != apply to structured values")
      | _ ->
        error loc "cannot compare %a with %a" Ptype.pp_type ta.ty Ptype.pp_type tb.ty
    in
    { ty = Ptype.bool_; n = node }

and check_call env loc name args : texpr =
  match List.assoc_opt name env.funs with
  | Some fs -> check_user_call env loc name fs args
  | None -> check_builtin_call env loc name args

and check_user_call ?(as_stmt = false) env loc name (fs : fsig) args : texpr =
  if List.length args <> List.length fs.fs_params then
    error loc "%s expects %d argument(s), got %d" name (List.length fs.fs_params)
      (List.length args);
  let targs =
    List.map2
      (fun a want -> convert_for_assign loc (check_expr env a) want)
      args fs.fs_params
  in
  let ty =
    match fs.fs_ret with
    | Some ty -> ty
    | None when as_stmt -> Ptype.int_ (* result is discarded *)
    | None -> error loc "void function %s used in an expression" name
  in
  { ty; n = Tufcall (fs.fs_idx, targs) }

and check_builtin_call env loc name args : texpr =
  let targs = List.map (check_expr env) args in
  let arity n =
    if List.length targs <> n then
      error loc "%s expects %d argument(s), got %d" name n (List.length targs)
  in
  let arg i = List.nth targs i in
  match name with
  | "int" | "long" ->
    arity 1;
    coerce loc (arg 0) Ptype.int_
  | "unsigned" ->
    arity 1;
    coerce loc (arg 0) Ptype.uint
  | "float" | "double" ->
    arity 1;
    coerce loc (arg 0) Ptype.float_
  | "char" ->
    arity 1;
    coerce loc (arg 0) Ptype.char_
  | "bool" ->
    arity 1;
    coerce loc (arg 0) Ptype.bool_
  | "string" ->
    arity 1;
    to_string_expr (arg 0)
  | "strlen" ->
    arity 1;
    (match (arg 0).ty with
     | Basic String -> { ty = Ptype.int_; n = Tcall (Bstrlen, targs) }
     | ty -> error loc "strlen expects a string, got %a" Ptype.pp_type ty)
  | "len" ->
    arity 1;
    (match (arg 0).ty with
     | Array _ -> { ty = Ptype.int_; n = Tcall (Blen, targs) }
     | Basic String -> { ty = Ptype.int_; n = Tcall (Bstrlen, targs) }
     | ty -> error loc "len expects an array or string, got %a" Ptype.pp_type ty)
  | "abs" ->
    arity 1;
    (match cls_of (arg 0).ty with
     | Cint -> { ty = Ptype.int_; n = Tcall (Babs, [ coerce loc (arg 0) Ptype.int_ ]) }
     | Cfloat -> { ty = Ptype.float_; n = Tcall (Bfabs, targs) }
     | _ -> error loc "abs expects a number")
  | "fabs" ->
    arity 1;
    { ty = Ptype.float_; n = Tcall (Bfabs, [ coerce loc (arg 0) Ptype.float_ ]) }
  | "min" | "max" ->
    arity 2;
    let a = arg 0 and b = arg 1 in
    (match cls_of a.ty, cls_of b.ty with
     | Cint, Cint ->
       let bi = if name = "min" then Bmin_int else Bmax_int in
       { ty = Ptype.int_;
         n = Tcall (bi, [ coerce loc a Ptype.int_; coerce loc b Ptype.int_ ]) }
     | (Cint | Cfloat), (Cint | Cfloat) ->
       let bi = if name = "min" then Bmin_float else Bmax_float in
       { ty = Ptype.float_;
         n = Tcall (bi, [ coerce loc a Ptype.float_; coerce loc b Ptype.float_ ]) }
     | _ -> error loc "%s expects numbers" name)
  | "floor" | "ceil" | "sqrt" ->
    arity 1;
    let bi = match name with
      | "floor" -> Bfloor | "ceil" -> Bceil | _ -> Bsqrt
    in
    { ty = Ptype.float_; n = Tcall (bi, [ coerce loc (arg 0) Ptype.float_ ]) }
  | "pow" ->
    arity 2;
    { ty = Ptype.float_;
      n = Tcall (Bpow, [ coerce loc (arg 0) Ptype.float_; coerce loc (arg 1) Ptype.float_ ]) }
  | _ -> error loc "unknown function %S" name

and check_lval env (e : Ast.expr) : tlval =
  let loc = e.Ast.eloc in
  let rec go (e : Ast.expr) : lbase * lstep list * ty =
    match e.Ast.e with
    | Ident name ->
      (match lookup env name with
       | Some (Blocal (slot, ty)) -> (Lbase_local slot, [], ty)
       | Some (Bparam (slot, ty)) -> (Lbase_param slot, [], ty)
       | None -> error loc "unknown variable %S" name)
    | Field (base, fname) ->
      let b, steps, ty = go base in
      (match ty with
       | Record r ->
         let idx, fty = field loc r fname in
         (b, steps @ [ Sfield idx ], fty)
       | _ -> error loc "field access %S on non-record" fname)
    | Index (base, idx) ->
      let b, steps, ty = go base in
      (match ty with
       | Array a ->
         let ti = coerce loc (check_expr env idx) Ptype.int_ in
         (b, steps @ [ Sindex (ti, a.elem) ], a.elem)
       | _ -> error loc "indexing non-array")
    | _ -> error loc "expression is not assignable"
  in
  let base, steps, lty = go e in
  { base; steps; lty }

(* --- statements ---------------------------------------------------------- *)

let rec check_stmt env (s : Ast.stmt) : tstmt =
  let loc = s.Ast.sloc in
  match s.Ast.s with
  | Empty -> TSnop
  | Expr ({ e = Call (name, args); _ } as e) ->
    (* void user-function calls are legal as statements *)
    (match List.assoc_opt name env.funs with
     | Some fs -> TSexpr (check_user_call ~as_stmt:true env loc name fs args)
     | None -> TSexpr (check_expr env e))
  | Expr e -> TSexpr (check_expr env e)
  | Decl (dt, decls) ->
    let ty = ty_of_dtyp dt in
    let inits =
      List.map
        (fun (d : Ast.decl) ->
           let init =
             match d.dinit with
             | Some e -> convert_for_assign loc (check_expr env e) ty
             | None -> { ty; n = Tconst (Value.default ty) }
           in
           let slot = declare_local env loc d.dname ty in
           TSexpr { ty; n = Tassign ({ base = Lbase_local slot; steps = []; lty = ty }, init) })
        decls
    in
    (match inits with [ s ] -> s | ss -> TSblock ss)
  | If (c, then_, else_) ->
    let tc = to_bool loc (check_expr env c) in
    enter_scope env;
    let tt = check_stmt env then_ in
    leave_scope env;
    let te =
      Option.map
        (fun s ->
           enter_scope env;
           let t = check_stmt env s in
           leave_scope env;
           t)
        else_
    in
    TSif (tc, tt, te)
  | While (c, body) ->
    let tc = to_bool loc (check_expr env c) in
    enter_scope env;
    let tb = check_stmt env body in
    leave_scope env;
    TSwhile (tc, tb)
  | Do_while (body, c) ->
    enter_scope env;
    let tb = check_stmt env body in
    leave_scope env;
    let tc = to_bool loc (check_expr env c) in
    TSdo (tb, tc)
  | For (init, cond, step, body) ->
    enter_scope env;
    let tinit = Option.map (check_stmt env) init in
    let tcond = Option.map (fun e -> to_bool loc (check_expr env e)) cond in
    let tstep = Option.map (check_expr env) step in
    enter_scope env;
    let tbody = check_stmt env body in
    leave_scope env;
    leave_scope env;
    TSfor (tinit, tcond, tstep, tbody)
  | Switch (scrutinee, arms) ->
    let tsc = coerce loc (check_expr env scrutinee) Ptype.int_ in
    (* duplicate labels and multiple defaults are compile-time errors *)
    let all_labels = List.concat_map (fun (a : Ast.switch_arm) -> a.labels) arms in
    let rec dup = function
      | [] -> None
      | x :: rest -> if List.mem x rest then Some x else dup rest
    in
    (match dup all_labels with
     | Some v -> error loc "duplicate case label %d" v
     | None -> ());
    if List.length (List.filter (fun (a : Ast.switch_arm) -> a.has_default) arms) > 1
    then error loc "multiple default labels";
    (* one shared scope for the whole switch body, as in C *)
    enter_scope env;
    let tarms =
      List.map
        (fun (a : Ast.switch_arm) ->
           { t_labels = a.labels;
             t_default = a.has_default;
             t_body = List.map (check_stmt env) a.body })
        arms
    in
    leave_scope env;
    TSswitch (tsc, tarms)
  | Block ss ->
    enter_scope env;
    let ts = List.map (check_stmt env) ss in
    leave_scope env;
    TSblock ts
  | Return e ->
    (match env.in_function with
     | None ->
       (* main body: transformation snippets return no value; a returned
          expression is evaluated for effect and discarded *)
       (match e with
        | None -> TSreturn None
        | Some e -> TSblock [ TSexpr (check_expr env e); TSreturn None ])
     | Some None ->
       (match e with
        | None -> TSreturn None
        | Some _ -> error loc "void function returns a value")
     | Some (Some ret) ->
       (match e with
        | None -> error loc "non-void function must return a value"
        | Some e -> TSreturn (Some (convert_for_assign loc (check_expr env e) ret))))
  | Break -> TSbreak
  | Continue -> TScontinue

let check ~(params : (string * ty) list) (prog : Ast.prog) : (tprog, string) result =
  try
    (* first pass: collect function signatures (mutual recursion works) *)
    let fsigs =
      List.mapi
        (fun i (f : Ast.fundef) ->
           let fs_params = List.map (fun (d, _) -> ty_of_dtyp d) f.fparams in
           let fs_ret = Option.map ty_of_dtyp f.fret in
           (f.fdname, { fs_idx = i; fs_params; fs_ret }))
        prog.Ast.funs
    in
    let rec dup = function
      | [] -> None
      | (n, _) :: rest -> if List.mem_assoc n rest then Some n else dup rest
    in
    (match dup fsigs with
     | Some n ->
       raise (Error (Fmt.str "function %S defined twice" n, { Token.line = 0; col = 0 }))
     | None -> ());
    (* second pass: check each function body with its own frame *)
    let tfuns =
      Array.of_list
        (List.map
           (fun (f : Ast.fundef) ->
              let fenv =
                { scopes = [ [] ]; nlocals = 0; params = []; funs = fsigs;
                  in_function = Some (Option.map ty_of_dtyp f.fret) }
              in
              (* parameters live in the first local slots *)
              List.iter
                (fun (d, name) ->
                   ignore (declare_local fenv f.Ast.floc name (ty_of_dtyp d)))
                f.fparams;
              let tf_body = List.map (check_stmt fenv) f.fbody in
              {
                tf_name = f.fdname;
                tf_params = List.map (fun (d, _) -> ty_of_dtyp d) f.fparams;
                tf_ret = Option.map ty_of_dtyp f.fret;
                tf_nlocals = fenv.nlocals;
                tf_body;
              })
           prog.Ast.funs)
    in
    let env =
      { scopes = [ [] ]; nlocals = 0; params; funs = fsigs; in_function = None }
    in
    List.iteri
      (fun i (name, ty) ->
         match env.scopes with
         | scope :: rest -> env.scopes <- ((name, Bparam (i, ty)) :: scope) :: rest
         | [] -> assert false)
      params;
    let body = List.map (check_stmt env) prog.Ast.main in
    Ok { body; nlocals = env.nlocals; params; tfuns }
  with Error (msg, loc) ->
    Result.Error (Fmt.str "type error at %a: %s" Token.pp_loc loc msg)
