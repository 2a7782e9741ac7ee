(* Closure compilation of typed Ecode — the dynamic-code-generation stage.

   Every typed node becomes an OCaml closure over a small runtime frame;
   composition happens once, at compile time, so executing a transformation
   is a chain of direct calls with no name resolution, no operator dispatch
   and no type tests beyond unwrapping values.  This plays the role of
   PBIO/Ecode's native code generation (DESIGN.md, substitution S1). *)

open Pbio
open Typecheck

(* A coercion's failure ({!Pbio.Coerce.Runtime_error}) is a run-time error
   like any other: one exception, whichever engine part raised it. *)
exception Runtime_error = Coerce.Runtime_error

let runtime_error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type frame = {
  locals : Value.t array;
  params : Value.t array;
}

exception Brk
exception Cont
exception Ret
exception Retv of Value.t

type ecode_fn = Value.t array -> unit
(* Run the program against an array of parameter values (same order as the
   [params] given to {!Typecheck.check}). *)

(* --- helpers ------------------------------------------------------------- *)

let vint n = Value.Int n
let as_int v = Value.to_int v
let as_float v = Value.to_float v
let as_bool v = Value.to_bool v

(* Booleans are two shared constants, never a fresh box per test. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

(* --- lvalues ------------------------------------------------------------ *)

(* An lvalue compiled once.  A bare local or parameter is a slot; any
   other path is a navigation to the container of its final step plus that
   step: a field position, or an index expression with the element default
   that fills gaps.  Navigation grows a variable array by one fresh element
   when an intermediate index lands one past the end, so code like
   [old.list[count].f = x] extends the list. *)
type access =
  | Local of int
  | Param of int
  | Field of (frame -> Value.t) * int
  | Elem of (frame -> Value.t) * (frame -> Value.t) * Value.t

(* Store into element [i], growing the array when [i] is at or past the
   end; only a write past the end takes a (shared) copy of [fill] for the
   gap. *)
let store_elem a i v fill =
  let d = Value.dyn a in
  if i >= 0 && i < d.Value.len then d.Value.items.(i) <- v
  else if i = d.Value.len then Value.array_push a v
  else Value.array_set ~fill:(Value.copy fill) a i v

(* [lv = rhs]: resolve the path, then evaluate [rhs], then store. *)
let compile_store (acc : access) (cr : frame -> Value.t) : frame -> Value.t =
  match acc with
  | Local s ->
    fun f ->
      let v = cr f in
      f.locals.(s) <- v;
      v
  | Param s ->
    fun f ->
      let v = cr f in
      f.params.(s) <- v;
      v
  | Field (nav, idx) ->
    fun f ->
      let c = nav f in
      let v = cr f in
      Value.set_at c idx v;
      v
  | Elem (nav, ci, fill) ->
    fun f ->
      let c = nav f in
      let i = as_int (ci f) in
      let v = cr f in
      store_elem c i v fill;
      v

(* Read-modify-write with one navigation: resolve the path, run [before],
   read the current value, store [k f old], and yield the stored value, or
   the old one when [post]. *)
let compile_modify (acc : access) ~post ~(before : frame -> unit)
    (k : frame -> Value.t -> Value.t) : frame -> Value.t =
  match acc with
  | Local s ->
    fun f ->
      before f;
      let old = f.locals.(s) in
      let nv = k f old in
      f.locals.(s) <- nv;
      if post then old else nv
  | Param s ->
    fun f ->
      before f;
      let old = f.params.(s) in
      let nv = k f old in
      f.params.(s) <- nv;
      if post then old else nv
  | Field (nav, idx) ->
    fun f ->
      let c = nav f in
      before f;
      let old = Value.field_at c idx in
      let nv = k f old in
      Value.set_at c idx nv;
      if post then old else nv
  | Elem (nav, ci, fill) ->
    fun f ->
      let c = nav f in
      let i = as_int (ci f) in
      before f;
      let old = Value.array_get c i in
      let nv = k f old in
      store_elem c i nv fill;
      if post then old else nv

let no_before (_ : frame) = ()

(* --- expressions --------------------------------------------------------- *)

(* Compiled user functions, patched after all bodies are compiled so that
   (mutual) recursion works. *)
type impls = (Value.t array -> Value.t) array

let rec compile_expr (impls : impls) (e : texpr) : frame -> Value.t =
  let compile_expr = compile_expr impls in
  match e.n with
  | Tconst v ->
    (match v with
     | Record _ | Array _ -> fun _ -> Value.copy v
     | _ -> fun _ -> v)
  | Tlocal slot -> fun f -> f.locals.(slot)
  | Tparam slot -> fun f -> f.params.(slot)
  | Tfield (base, idx) ->
    let cb = compile_expr base in
    fun f -> Value.field_at (cb f) idx
  | Tindex (base, ix) ->
    let cb = compile_expr base in
    let ci = compile_expr ix in
    fun f -> Value.array_get (cb f) (as_int (ci f))
  | Tarith (op, a, b) -> compile_arith impls op a b
  | Tcmp _ | Tand _ | Tor _ | Tnot _ ->
    let c = compile_cond impls e in
    fun f -> vbool (c f)
  | Tneg a ->
    let ca = compile_expr a in
    fun f -> vint (-as_int (ca f))
  | Tfneg a ->
    let ca = compile_expr a in
    fun f -> Value.Float (-.as_float (ca f))
  | Tbnot a ->
    let ca = compile_expr a in
    fun f -> vint (lnot (as_int (ca f)))
  | Tcond (c, a, b) ->
    let cc = compile_cond impls c and ca = compile_expr a and cb = compile_expr b in
    fun f -> if cc f then ca f else cb f
  | Tcall (bi, args) -> compile_call impls bi args
  | Tcoerce (co, a) -> compile_coerce impls co a
  | Tufcall (idx, args) ->
    let cargs = Array.of_list (List.map compile_expr args) in
    fun f -> impls.(idx) (Array.map (fun c -> c f) cargs)
  | Tassign (lv, rhs) ->
    let cr = compile_expr rhs in
    let cr =
      match lv.lty with
      | Record _ | Array _ -> fun f -> Value.copy (cr f)
      | Basic _ -> cr
    in
    compile_store (compile_access impls lv) cr
  | Tupdate { lv; rhs; rslot; cur; value } ->
    let cr = compile_expr rhs and cv = compile_expr value in
    compile_modify (compile_access impls lv) ~post:false
      ~before:(fun f -> f.locals.(rslot) <- cr f)
      (fun f old ->
         f.locals.(cur) <- old;
         cv f)
  | Tincr { pre; delta; is_float; lv } ->
    let acc = compile_access impls lv in
    if is_float then
      let d = float_of_int delta in
      compile_modify acc ~post:(not pre) ~before:no_before (fun _ old ->
          Value.Float (as_float old +. d))
    else
      let box = Coerce.box_int lv.lty in
      compile_modify acc ~post:(not pre) ~before:no_before (fun _ old ->
          box (as_int old + delta))

and compile_arith impls op a b : frame -> Value.t =
  let compile_expr = compile_expr impls in
  let ca = compile_expr a and cb = compile_expr b in
  match op with
  | Iadd -> fun f -> vint (as_int (ca f) + as_int (cb f))
  | Isub -> fun f -> vint (as_int (ca f) - as_int (cb f))
  | Imul -> fun f -> vint (as_int (ca f) * as_int (cb f))
  | Idiv ->
    fun f ->
      let d = as_int (cb f) in
      if d = 0 then runtime_error "division by zero";
      vint (as_int (ca f) / d)
  | Imod ->
    fun f ->
      let d = as_int (cb f) in
      if d = 0 then runtime_error "modulo by zero";
      vint (as_int (ca f) mod d)
  | Iband -> fun f -> vint (as_int (ca f) land as_int (cb f))
  | Ibor -> fun f -> vint (as_int (ca f) lor as_int (cb f))
  | Ibxor -> fun f -> vint (as_int (ca f) lxor as_int (cb f))
  | Ishl -> fun f -> vint (as_int (ca f) lsl (as_int (cb f) land 63))
  | Ishr -> fun f -> vint (as_int (ca f) asr (as_int (cb f) land 63))
  | Fadd -> fun f -> Value.Float (as_float (ca f) +. as_float (cb f))
  | Fsub -> fun f -> Value.Float (as_float (ca f) -. as_float (cb f))
  | Fmul -> fun f -> Value.Float (as_float (ca f) *. as_float (cb f))
  | Fdiv -> fun f -> Value.Float (as_float (ca f) /. as_float (cb f))
  | Sconcat ->
    fun f -> Value.String (Coerce.string_of_value (ca f) ^ Coerce.string_of_value (cb f))

(* Conditions compile to unboxed tests. *)
and compile_cond impls (e : texpr) : frame -> bool =
  match e.n with
  | Tcmp (op, kind, a, b) -> compile_cmp impls op kind a b
  | Tand (a, b) ->
    let ca = compile_cond impls a and cb = compile_cond impls b in
    fun f -> ca f && cb f
  | Tor (a, b) ->
    let ca = compile_cond impls a and cb = compile_cond impls b in
    fun f -> ca f || cb f
  | Tnot a ->
    let ca = compile_cond impls a in
    fun f -> not (ca f)
  | Tcoerce (To_bool, a) ->
    let ca = compile_expr impls a in
    fun f -> as_bool (ca f)
  | _ ->
    let ce = compile_expr impls e in
    fun f -> as_bool (ce f)

and compile_cmp impls op kind a b : frame -> bool =
  let compile_expr = compile_expr impls in
  let ca = compile_expr a and cb = compile_expr b in
  match kind, op with
  | Kint, Ceq -> fun f -> as_int (ca f) = as_int (cb f)
  | Kint, Cne -> fun f -> as_int (ca f) <> as_int (cb f)
  | Kint, Clt -> fun f -> as_int (ca f) < as_int (cb f)
  | Kint, Cle -> fun f -> as_int (ca f) <= as_int (cb f)
  | Kint, Cgt -> fun f -> as_int (ca f) > as_int (cb f)
  | Kint, Cge -> fun f -> as_int (ca f) >= as_int (cb f)
  | Kfloat, Ceq -> fun f -> as_float (ca f) = as_float (cb f)
  | Kfloat, Cne -> fun f -> as_float (ca f) <> as_float (cb f)
  | Kfloat, Clt -> fun f -> as_float (ca f) < as_float (cb f)
  | Kfloat, Cle -> fun f -> as_float (ca f) <= as_float (cb f)
  | Kfloat, Cgt -> fun f -> as_float (ca f) > as_float (cb f)
  | Kfloat, Cge -> fun f -> as_float (ca f) >= as_float (cb f)
  | Kstring, _ ->
    let scmp : string -> string -> bool =
      match op with
      | Ceq -> ( = ) | Cne -> ( <> ) | Clt -> ( < )
      | Cle -> ( <= ) | Cgt -> ( > ) | Cge -> ( >= )
    in
    fun f -> scmp (Value.to_string_exn (ca f)) (Value.to_string_exn (cb f))
  | Kvalue, Ceq -> fun f -> Value.equal (ca f) (cb f)
  | Kvalue, Cne -> fun f -> not (Value.equal (ca f) (cb f))
  | Kvalue, (Clt | Cle | Cgt | Cge) -> assert false (* rejected by typecheck *)

and compile_call impls bi args : frame -> Value.t =
  let cargs = Array.of_list (List.map (compile_expr impls) args) in
  let a0 = cargs.(0) in
  match bi with
  | Bstrlen -> fun f -> vint (String.length (Value.to_string_exn (a0 f)))
  | Blen -> fun f -> vint (Value.array_len (a0 f))
  | Babs -> fun f -> vint (abs (as_int (a0 f)))
  | Bfabs -> fun f -> Value.Float (Float.abs (as_float (a0 f)))
  | Bmin_int ->
    let a1 = cargs.(1) in
    fun f -> vint (min (as_int (a0 f)) (as_int (a1 f)))
  | Bmax_int ->
    let a1 = cargs.(1) in
    fun f -> vint (max (as_int (a0 f)) (as_int (a1 f)))
  | Bmin_float ->
    let a1 = cargs.(1) in
    fun f -> Value.Float (Float.min (as_float (a0 f)) (as_float (a1 f)))
  | Bmax_float ->
    let a1 = cargs.(1) in
    fun f -> Value.Float (Float.max (as_float (a0 f)) (as_float (a1 f)))
  | Bfloor -> fun f -> Value.Float (Float.floor (as_float (a0 f)))
  | Bceil -> fun f -> Value.Float (Float.ceil (as_float (a0 f)))
  | Bsqrt -> fun f -> Value.Float (Float.sqrt (as_float (a0 f)))
  | Bpow ->
    let a1 = cargs.(1) in
    fun f -> Value.Float (Float.pow (as_float (a0 f)) (as_float (a1 f)))

and compile_coerce impls co a : frame -> Value.t =
  let ca = compile_expr impls a in
  let k = Coerce.compile ~from:a.ty co in
  fun f -> k (ca f)

and compile_access impls (lv : tlval) : access =
  let step nav = function
    | Sfield idx -> fun f -> Value.field_at (nav f) idx
    | Sindex (ix, elem_ty) ->
      let ci = compile_expr impls ix and fill = Value.default elem_ty in
      fun f ->
        let a = nav f in
        let i = as_int (ci f) in
        if i = Value.array_len a then Value.array_push a (Value.copy fill);
        Value.array_get a i
  in
  match lv.base, List.rev lv.steps with
  | Lbase_local s, [] -> Local s
  | Lbase_param s, [] -> Param s
  | base, last :: rev_init ->
    let base : frame -> Value.t =
      match base with
      | Lbase_local s -> fun f -> f.locals.(s)
      | Lbase_param s -> fun f -> f.params.(s)
    in
    let nav = List.fold_left step base (List.rev rev_init) in
    (match last with
     | Sfield idx -> Field (nav, idx)
     | Sindex (ix, elem_ty) -> Elem (nav, compile_expr impls ix, Value.default elem_ty))

(* --- statements ---------------------------------------------------------- *)

let run_all (gs : (frame -> unit) array) (f : frame) =
  for i = 0 to Array.length gs - 1 do
    gs.(i) f
  done

let rec compile_stmt (impls : impls) (s : tstmt) : frame -> unit =
  let compile_expr = compile_expr impls in
  let compile_cond = compile_cond impls in
  let compile_stmt = compile_stmt impls in
  match s with
  | TSnop -> fun _ -> ()
  | TSexpr e ->
    let ce = compile_expr e in
    fun f -> ignore (ce f)
  | TSif (c, t, None) ->
    let cc = compile_cond c in
    let ct = compile_stmt t in
    fun f -> if cc f then ct f
  | TSif (c, t, Some e) ->
    let cc = compile_cond c in
    let ct = compile_stmt t in
    let ce = compile_stmt e in
    fun f -> if cc f then ct f else ce f
  | TSwhile (c, body) ->
    let cc = compile_cond c in
    let cb = compile_stmt body in
    fun f ->
      (try
         while cc f do
           try cb f with Cont -> ()
         done
       with Brk -> ())
  | TSdo (body, c) ->
    let cb = compile_stmt body in
    let cc = compile_cond c in
    fun f ->
      (try
         let continue_ = ref true in
         while !continue_ do
           (try cb f with Cont -> ());
           continue_ := cc f
         done
       with Brk -> ())
  | TSfor (init, cond, step, body) ->
    let ci = match init with Some s -> compile_stmt s | None -> fun _ -> () in
    let cc = match cond with Some c -> compile_cond c | None -> fun _ -> true in
    let cs =
      match step with
      | Some e ->
        let ce = compile_expr e in
        fun f -> ignore (ce f)
      | None -> fun _ -> ()
    in
    let cb = compile_stmt body in
    fun f ->
      ci f;
      (try
         while cc f do
           (try cb f with Cont -> ());
           cs f
         done
       with Brk -> ())
  | TSswitch (scrutinee, arms) ->
    let csc = compile_expr scrutinee in
    let bodies =
      Array.of_list
        (List.map (fun (a : Typecheck.tarm) ->
             Array.of_list (List.map compile_stmt a.Typecheck.t_body))
           arms)
    in
    let table = Hashtbl.create 8 in
    let default_idx = ref None in
    List.iteri
      (fun i (a : Typecheck.tarm) ->
         List.iter (fun v -> Hashtbl.replace table v i) a.Typecheck.t_labels;
         if a.Typecheck.t_default && !default_idx = None then default_idx := Some i)
      arms;
    let default_idx = !default_idx in
    let n = Array.length bodies in
    fun f ->
      let v = as_int (csc f) in
      (match
         (match Hashtbl.find_opt table v with
          | Some i -> Some i
          | None -> default_idx)
       with
       | None -> ()
       | Some start ->
         (try
            for j = start to n - 1 do
              run_all bodies.(j) f
            done
          with Brk -> ()))
  | TSblock ss ->
    let cs = Array.of_list (List.map compile_stmt ss) in
    fun f -> run_all cs f
  | TSreturn None -> fun _ -> raise Ret
  | TSreturn (Some e) ->
    let ce = compile_expr e in
    fun f -> raise (Retv (ce f))
  | TSbreak -> fun _ -> raise Brk
  | TScontinue -> fun _ -> raise Cont

let compile (prog : tprog) : ecode_fn =
  (* compile user functions first; bodies reference the [impls] array at
     call time, so (mutual) recursion resolves after patching *)
  let nfuns = Array.length prog.tfuns in
  let impls : impls = Array.make nfuns (fun _ -> Value.Int 0) in
  Array.iteri
    (fun i (tf : Typecheck.tfun) ->
       let body = Array.of_list (List.map (compile_stmt impls) tf.tf_body) in
       let nlocals = tf.tf_nlocals in
       let nparams = List.length tf.tf_params in
       let fallthrough_ret =
         match tf.tf_ret with
         | Some ty -> Value.default ty
         | None -> Value.Int 0 (* void: result is never observed *)
       in
       impls.(i) <-
         (fun args ->
            if Array.length args <> nparams then
              runtime_error "%s expects %d arguments, got %d" tf.tf_name nparams
                (Array.length args);
            (* parameters occupy the first local slots *)
            let f = { locals = Array.make (max 1 nlocals) (Value.Int 0); params = [||] } in
            Array.blit args 0 f.locals 0 (Array.length args);
            try
              run_all body f;
              fallthrough_ret
            with
            | Ret -> fallthrough_ret
            | Retv v -> v))
    prog.tfuns;
  let body = Array.of_list (List.map (compile_stmt impls) prog.body) in
  let nlocals = prog.nlocals in
  let nparams = List.length prog.params in
  fun params ->
    if Array.length params <> nparams then
      runtime_error "expected %d parameters, got %d" nparams (Array.length params);
    let f = { locals = Array.make (max 1 nlocals) (Value.Int 0); params } in
    try run_all body f with Ret | Retv _ -> ()
