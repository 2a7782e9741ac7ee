(* A tree-walking interpreter over the checked program ({!Typecheck.tprog}).

   It runs what {!Compile} compiles: the same typed tree, so the same
   coercions ({!Pbio.Coerce}), operand classes, builtins and array stores,
   in the same order.  The two engines differ only in when they dispatch:
   this walk matches every node each time it runs, where {!Compile}
   matches each node once and builds closures.  That per-node dispatch is
   the baseline the A1 ablation times (DESIGN.md).

   Locals live in one [Value.t array] per call, parameters are read by
   slot and user functions by index.  An int local holds a boxed int, as
   compiled code's unboxed slot reads back.  A failure raises what
   compiled code raises: {!Pbio.Coerce.Runtime_error}, or
   {!Pbio.Value.Type_error} from an accessor.  [break], [continue] and
   [return] unwind by {!Compile}'s exceptions.

   Evaluation order is Compile's: an assignment resolves its path, then
   evaluates its right-hand side, then stores; a path step evaluates its
   container before its index, a read its index before its base; a binary
   operator or builtin evaluates its right operand first (OCaml evaluates
   the compiled closures' operands right to left); a user function's
   arguments run left to right. *)

open Pbio
open Typecheck

type frame = {
  locals : Value.t array;
  params : Value.t array;
  funs : tfun array;
}

let int = Value.to_int
let float = Value.to_float

let set_local f slot (ty : Ptype.t) v =
  let v = match ty with Basic Int -> Value.Int (int v) | _ -> v in
  f.locals.(slot) <- v;
  v

(* Where an lvalue's path ends: a slot, a record field, or an array
   element with its element type (the fill of a store past the end). *)
type place =
  | Local of int * Ptype.t
  | Param of int
  | At of Value.t * int
  | Elem of Value.t * int * Ptype.t

let get f = function
  | Local (s, _) -> f.locals.(s)
  | Param s -> f.params.(s)
  | At (c, i) -> Value.field_at c i
  | Elem (c, i, _) -> Value.array_get c i

let store f p v =
  match p with
  | Local (s, ty) -> set_local f s ty v
  | Param s ->
    f.params.(s) <- v;
    v
  | At (c, i) ->
    Value.set_at c i v;
    v
  | Elem (c, i, ety) ->
    Value.array_set ~fill:(Value.default ety) c i v;
    v

(* Whether [op] holds of two operands that compare as [c]. *)
let holds op c =
  match op with
  | Ceq -> c = 0 | Cne -> c <> 0 | Clt -> c < 0
  | Cle -> c <= 0 | Cgt -> c > 0 | Cge -> c >= 0

let rec eval f (e : texpr) : Value.t =
  match e.n with
  | Tconst v -> (match v with Record _ | Array _ -> Value.copy v | _ -> v)
  | Tlocal s -> f.locals.(s)
  | Tparam s -> f.params.(s)
  | Tfield (b, i) -> Value.field_at (eval f b) i
  | Tindex (b, ix) ->
    let k = int (eval f ix) in
    Value.array_get (eval f b) k
  | Tarith (op, a, b) -> arith f op a b
  | Tcmp (op, kind, a, b) -> Value.Bool (compare f op kind a b)
  | Tand (a, b) -> Value.Bool (cond f a && cond f b)
  | Tor (a, b) -> Value.Bool (cond f a || cond f b)
  | Tnot a -> Value.Bool (not (cond f a))
  | Tneg a -> Value.Int (-int (eval f a))
  | Tfneg a -> Value.Float (-.float (eval f a))
  | Tbnot a -> Value.Int (lnot (int (eval f a)))
  | Tcond (c, a, b) -> if cond f c then eval f a else eval f b
  | Tcall (bi, args) -> call f bi args
  | Tcoerce (co, a) -> Coerce.compile ~from:a.ty co (eval f a)
  | Tufcall (i, args) -> ufcall f.funs f.funs.(i) (List.map (eval f) args)
  | Tassign (lv, rhs) ->
    let p = place f lv in
    let v = eval f rhs in
    store f p (match lv.lty with Record _ | Array _ -> Value.copy v | Basic _ -> v)
  | Tupdate { lv; rhs; rslot; cur; value } ->
    let p = place f lv in
    ignore (set_local f rslot rhs.ty (eval f rhs));
    ignore (set_local f cur lv.lty (get f p));
    store f p (eval f value)
  | Tincr { pre; delta; is_float; lv } ->
    let p = place f lv in
    let old = get f p in
    let nv =
      if is_float then Value.Float (float old +. float_of_int delta)
      else Coerce.box_int lv.lty (int old + delta)
    in
    ignore (store f p nv);
    if pre then nv else old

and cond f e = Value.to_bool (eval f e)

and arith f op a b : Value.t =
  match op with
  | Idiv | Imod ->
    let d = int (eval f b) in
    if d = 0 then Compile.runtime_error (if op = Idiv then "division by zero" else "modulo by zero");
    let n = int (eval f a) in
    Value.Int (if op = Idiv then n / d else n mod d)
  | Iadd | Isub | Imul | Iband | Ibor | Ibxor | Ishl | Ishr ->
    let y = int (eval f b) in
    let x = int (eval f a) in
    Value.Int
      (match op with
       | Iadd -> x + y | Isub -> x - y | Imul -> x * y
       | Iband -> x land y | Ibor -> x lor y | Ibxor -> x lxor y
       | Ishl -> x lsl (y land 63) | _ -> x asr (y land 63))
  | Fadd | Fsub | Fmul | Fdiv ->
    let y = float (eval f b) in
    let x = float (eval f a) in
    Value.Float
      (match op with Fadd -> x +. y | Fsub -> x -. y | Fmul -> x *. y | _ -> x /. y)
  | Sconcat ->
    let y = Coerce.string_of_value (eval f b) in
    Value.String (Coerce.string_of_value (eval f a) ^ y)

and compare f op kind a b : bool =
  match kind with
  | Kint ->
    let y = int (eval f b) in
    holds op (Int.compare (int (eval f a)) y)
  | Kfloat ->
    let y = float (eval f b) in
    let x = float (eval f a) in
    (* IEEE comparisons: every test but != is false against a nan *)
    (match op with
     | Ceq -> x = y | Cne -> x <> y | Clt -> x < y
     | Cle -> x <= y | Cgt -> x > y | Cge -> x >= y)
  | Kstring ->
    let y = Value.to_string_exn (eval f b) in
    holds op (String.compare (Value.to_string_exn (eval f a)) y)
  | Kvalue ->
    let y = eval f b in
    let eq = Value.equal (eval f a) y in
    if op = Ceq then eq else not eq

and call f bi args : Value.t =
  let one conv = conv (eval f (List.hd args)) in
  let two conv k =
    match args with
    | [ a; b ] ->
      let y = conv (eval f b) in
      k (conv (eval f a)) y
    | _ -> assert false
  in
  match bi with
  | Bstrlen -> Value.Int (String.length (one Value.to_string_exn))
  | Blen -> Value.Int (one Value.array_len)
  | Babs -> Value.Int (abs (one int))
  | Bfabs -> Value.Float (Float.abs (one float))
  | Bmin_int -> Value.Int (two int min)
  | Bmax_int -> Value.Int (two int max)
  | Bmin_float -> Value.Float (two float Float.min)
  | Bmax_float -> Value.Float (two float Float.max)
  | Bfloor -> Value.Float (Float.floor (one float))
  | Bceil -> Value.Float (Float.ceil (one float))
  | Bsqrt -> Value.Float (Float.sqrt (one float))
  | Bpow -> Value.Float (two float Float.pow)

(* A call gets its own frame; parameters occupy its first local slots. *)
and ufcall funs (tf : tfun) (args : Value.t list) : Value.t =
  let f = { locals = Array.make (max 1 tf.tf_nlocals) (Value.Int 0); params = [||]; funs } in
  List.iteri (fun j (ty, v) -> ignore (set_local f j ty v)) (List.combine tf.tf_params args);
  let fallthrough = match tf.tf_ret with Some ty -> Value.default ty | None -> Value.Int 0 in
  match List.iter (exec f) tf.tf_body with
  | () -> fallthrough
  | exception Compile.Ret -> fallthrough
  | exception Compile.Retv v -> v

(* An lvalue's path, resolved once.  Each index step grows a variable
   array by one element of its type when the index lands one past the
   end, so [old.list[n].f = x] appends, as {!Compile}'s navigation does. *)
and place f (lv : tlval) : place =
  let rec go c = function
    | [ Sfield i ] -> At (c, i)
    | [ Sindex (ix, ety) ] -> Elem (c, int (eval f ix), ety)
    | Sfield i :: rest -> go (Value.field_at c i) rest
    | Sindex (ix, ety) :: rest ->
      let i = int (eval f ix) in
      if i = Value.array_len c then Value.array_push c (Value.default ety);
      go (Value.array_get c i) rest
    | [] -> assert false
  in
  match lv.base, lv.steps with
  | Lbase_local s, [] -> Local (s, lv.lty)
  | Lbase_param s, [] -> Param s
  | Lbase_local s, steps -> go f.locals.(s) steps
  | Lbase_param s, steps -> go f.params.(s) steps

and exec f (s : tstmt) : unit =
  match s with
  | TSnop -> ()
  | TSexpr e -> ignore (eval f e)
  | TSif (c, t, e) -> if cond f c then exec f t else Option.iter (exec f) e
  | TSwhile (c, body) ->
    (try
       while cond f c do
         try exec f body with Compile.Cont -> ()
       done
     with Compile.Brk -> ())
  | TSdo (body, c) ->
    (try
       let again = ref true in
       while !again do
         (try exec f body with Compile.Cont -> ());
         again := cond f c
       done
     with Compile.Brk -> ())
  | TSfor (init, c, step, body) ->
    Option.iter (exec f) init;
    (try
       while match c with Some c -> cond f c | None -> true do
         (try exec f body with Compile.Cont -> ());
         Option.iter (fun e -> ignore (eval f e)) step
       done
     with Compile.Brk -> ())
  | TSswitch (scrutinee, arms) ->
    let v = int (eval f scrutinee) in
    let rec from p = function
      | [] -> None
      | (a :: _) as arms when p a -> Some arms
      | _ :: rest -> from p rest
    in
    let start =
      match from (fun a -> List.mem v a.t_labels) arms with
      | Some _ as s -> s
      | None -> from (fun a -> a.t_default) arms
    in
    Option.iter
      (fun arms -> try List.iter (fun a -> List.iter (exec f) a.t_body) arms with Compile.Brk -> ())
      start
  | TSblock ss -> List.iter (exec f) ss
  | TSreturn None -> raise Compile.Ret
  | TSreturn (Some e) -> raise (Compile.Retv (eval f e))
  | TSbreak -> raise Compile.Brk
  | TScontinue -> raise Compile.Cont

(* Run the program against an array of parameter values, in the order of
   the [params] it was checked against. *)
let run (prog : tprog) (params : Value.t array) : unit =
  let nparams = List.length prog.params in
  if Array.length params <> nparams then
    Compile.runtime_error "expected %d parameters, got %d" nparams (Array.length params);
  let f = { locals = Array.make (max 1 prog.nlocals) (Value.Int 0); params; funs = prog.tfuns } in
  try List.iter (exec f) prog.body with Compile.Ret | Compile.Retv _ -> ()
