(* Closure compilation of typed Ecode — the dynamic-code-generation stage.

   Every typed node becomes an OCaml closure over a small runtime frame;
   composition happens once, at compile time, so executing a transformation
   is a chain of direct calls with no name resolution, no operator dispatch
   and no type tests beyond unwrapping values.  This plays the role of
   PBIO/Ecode's native code generation (DESIGN.md, substitution S1).

   Three things bring a list-building loop such as Figure 5's close to a
   hand-written converter:
   - locals of type [int] live unboxed and integer expressions compile to
     [frame -> int]; a [Value.Int] is built only where an int is stored
     into a message or used as a value;
   - a short read path from a parameter ([field], [field, index] and
     [field, index, field]) or a one-field store prefix is one closure
     that matches the records and arrays it crosses inline;
   - a run of stores that fills one list element resolves the element once,
     and an appended element is built with only what survives
     ({!compile_group}). *)

open Pbio
open Typecheck

(* A run-time failure of compiled code (a division by zero, a parameter
   count) raises {!Pbio.Coerce.Runtime_error}, as a coercion's does: one
   exception for both engines and every part of them. *)
let runtime_error fmt = Fmt.kstr (fun s -> raise (Coerce.Runtime_error s)) fmt

(* Locals of type [int] live in [ints], every other local in [locals], both
   indexed by slot.  A slot's type never changes (a declared local's, or a
   compound assignment's hidden slot's operand type), so every site that
   names a slot knows which array holds it. *)
type frame = {
  locals : Value.t array;
  ints : int array;
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

let is_int (ty : Ptype.t) = match ty with Basic Int -> true | _ -> false

let vint n = Value.Int n
let as_float v = Value.to_float v

(* Booleans are two shared constants, never a fresh box per test. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

(* Unboxing, and record and array reads, matched here: the dev profile
   compiles every library with [-opaque], so calls into [Value] are never
   inlined.  Each fallback is the [Value] accessor itself, so a value of the
   wrong shape or an index out of bounds raises what it always raised. *)
let[@inline] as_int = function Value.Int n -> n | v -> Value.to_int v
let[@inline] as_bool = function Value.Bool b -> b | v -> Value.to_bool v

let[@inline] field_of v i =
  match v with Value.Record es -> es.(i).Value.v | v -> Value.field_at v i

let[@inline] elem_of v k =
  match v with
  | Value.Array d when k >= 0 && k < d.Value.len -> d.Value.items.(k)
  | v -> Value.array_get v k

(* --- lvalues ------------------------------------------------------------ *)

(* An lvalue compiled once.  A bare local or parameter is a slot; any
   other path is a navigation to the container of its final step plus that
   step: a field position, or an index expression with the element default
   that fills gaps.  Int locals are not lvalues here: {!compile_int} writes
   them. *)
type access =
  | Local of int
  | Param of int
  | Field of (frame -> Value.t) * int
  | Elem of (frame -> Value.t) * (frame -> int) * Value.t

(* Store into element [i], growing the array when [i] is at or past the
   end; a write past the end fills each gap slot with its own copy of
   [fill]. *)
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
      let i = ci f in
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
      let i = ci f in
      before f;
      let old = Value.array_get c i in
      let nv = k f old in
      store_elem c i nv fill;
      if post then old else nv

let no_before (_ : frame) = ()

(* A write to an int local ([=], [op=], [++], [--]): computed unboxed, by
   {!compile_int}. *)
let int_local_write (e : texpr) =
  match e.n with
  | Tassign ({ base = Lbase_local _; steps = []; lty }, _)
  | Tincr { lv = { base = Lbase_local _; steps = []; lty }; _ }
  | Tupdate { lv = { base = Lbase_local _; steps = []; lty }; _ } -> is_int lty
  | _ -> false

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
  | Tlocal slot when is_int e.ty -> fun f -> vint f.ints.(slot)
  | Tlocal slot -> fun f -> f.locals.(slot)
  | Tparam slot -> fun f -> f.params.(slot)
  (* the short read paths; the index runs before the base is read *)
  | Tfield ({ n = Tparam p; _ }, i) -> fun f -> field_of f.params.(p) i
  | Tindex ({ n = Tfield ({ n = Tparam p; _ }, i); _ }, ix) ->
    let ci = compile_int impls ix in
    fun f ->
      let k = ci f in
      elem_of (field_of f.params.(p) i) k
  | Tfield ({ n = Tindex ({ n = Tfield ({ n = Tparam p; _ }, i); _ }, ix); _ }, j) ->
    let ci = compile_int impls ix in
    fun f ->
      let k = ci f in
      field_of (elem_of (field_of f.params.(p) i) k) j
  | Tfield (base, idx) ->
    let cb = compile_expr base in
    fun f -> field_of (cb f) idx
  | Tindex (base, ix) ->
    let cb = compile_expr base in
    let ci = compile_int impls ix in
    fun f ->
      let k = ci f in
      elem_of (cb f) k
  | Tarith _ when is_int e.ty -> int_value impls e
  | Tneg _ | Tbnot _ -> int_value impls e
  | Tarith (op, a, b) -> compile_arith impls op a b
  | Tcmp _ | Tand _ | Tor _ | Tnot _ ->
    let c = compile_cond impls e in
    fun f -> vbool (c f)
  | Tfneg a ->
    let ca = compile_expr a in
    fun f -> Value.Float (-.as_float (ca f))
  | Tcond (c, a, b) ->
    let cc = compile_cond impls c and ca = compile_expr a and cb = compile_expr b in
    fun f -> if cc f then ca f else cb f
  | Tcall (bi, args) -> compile_call impls bi args
  | Tcoerce (co, a) -> compile_coerce impls co a
  | Tufcall (idx, args) ->
    let cargs = Array.of_list (List.map compile_expr args) in
    fun f -> impls.(idx) (Array.map (fun c -> c f) cargs)
  | (Tassign _ | Tupdate _ | Tincr _) when int_local_write e -> int_value impls e
  | Tassign (lv, rhs) -> compile_store (compile_access impls lv) (compile_assigned impls lv.lty rhs)
  | Tupdate { lv; rhs; rslot; cur; value } ->
    let stage = compile_stage impls rslot rhs and cv = compile_expr value in
    let keep : frame -> Value.t -> unit =
      if is_int lv.lty then fun f old -> f.ints.(cur) <- as_int old
      else fun f old -> f.locals.(cur) <- old
    in
    compile_modify (compile_access impls lv) ~post:false ~before:stage (fun f old ->
        keep f old;
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

and int_value impls e : frame -> Value.t =
  let c = compile_int impls e in
  fun f -> vint (c f)

(* The value an assignment stores: records and arrays are copied, like C
   struct assignment. *)
and compile_assigned impls (lty : Ptype.t) (rhs : texpr) : frame -> Value.t =
  let cr = compile_expr impls rhs in
  match lty with
  | Record _ | Array _ -> fun f -> Value.copy (cr f)
  | Basic _ -> cr

(* A compound assignment's right-hand side, into its hidden local. *)
and compile_stage impls slot (rhs : texpr) : frame -> unit =
  if is_int rhs.ty then
    let c = compile_int impls rhs in
    fun f -> f.ints.(slot) <- c f
  else
    let c = compile_expr impls rhs in
    fun f -> f.locals.(slot) <- c f

(* Integer expressions, unboxed: [compile_int e f] is
   [as_int (compile_expr e f)], with the same evaluation order. *)
and compile_int impls (e : texpr) : frame -> int =
  let ci = compile_int impls in
  match e.n with
  | Tconst (Value.Int n) -> fun _ -> n
  | Tlocal s when is_int e.ty -> fun f -> f.ints.(s)
  | Tarith (op, a, b) when is_int e.ty -> compile_int_arith op (ci a) (ci b)
  | Tneg a ->
    let ca = ci a in
    fun f -> -ca f
  | Tbnot a ->
    let ca = ci a in
    fun f -> lnot (ca f)
  | Tassign ({ base = Lbase_local s; steps = []; lty }, rhs) when is_int lty ->
    let cr = ci rhs in
    fun f ->
      let v = cr f in
      f.ints.(s) <- v;
      v
  | Tincr { pre; delta; lv = { base = Lbase_local s; steps = []; lty }; _ } when is_int lty ->
    if pre then fun f ->
      let v = f.ints.(s) + delta in
      f.ints.(s) <- v;
      v
    else fun f ->
      let v = f.ints.(s) in
      f.ints.(s) <- v + delta;
      v
  | Tupdate { lv = { base = Lbase_local s; steps = []; lty }; rhs; rslot; cur; value }
    when is_int lty ->
    let stage = compile_stage impls rslot rhs and cv = ci value in
    fun f ->
      stage f;
      f.ints.(cur) <- f.ints.(s);
      let v = cv f in
      f.ints.(s) <- v;
      v
  | _ ->
    let c = compile_expr impls e in
    fun f -> as_int (c f)

and compile_int_arith op (ca : frame -> int) (cb : frame -> int) : frame -> int =
  match op with
  | Iadd -> fun f -> ca f + cb f
  | Isub -> fun f -> ca f - cb f
  | Imul -> fun f -> ca f * cb f
  | Idiv ->
    fun f ->
      let d = cb f in
      if d = 0 then runtime_error "division by zero";
      ca f / d
  | Imod ->
    fun f ->
      let d = cb f in
      if d = 0 then runtime_error "modulo by zero";
      ca f mod d
  | Iband -> fun f -> ca f land cb f
  | Ibor -> fun f -> ca f lor cb f
  | Ibxor -> fun f -> ca f lxor cb f
  | Ishl -> fun f -> ca f lsl (cb f land 63)
  | Ishr -> fun f -> ca f asr (cb f land 63)
  | Fadd | Fsub | Fmul | Fdiv | Sconcat -> assert false (* never int-typed *)

(* Float and string operators; the int ones go through {!compile_int}. *)
and compile_arith impls op a b : frame -> Value.t =
  let ca = compile_expr impls a and cb = compile_expr impls b in
  match op with
  | Fadd -> fun f -> Value.Float (as_float (ca f) +. as_float (cb f))
  | Fsub -> fun f -> Value.Float (as_float (ca f) -. as_float (cb f))
  | Fmul -> fun f -> Value.Float (as_float (ca f) *. as_float (cb f))
  | Fdiv -> fun f -> Value.Float (as_float (ca f) /. as_float (cb f))
  | Sconcat ->
    fun f -> Value.String (Coerce.string_of_value (ca f) ^ Coerce.string_of_value (cb f))
  | Iadd | Isub | Imul | Idiv | Imod | Iband | Ibor | Ibxor | Ishl | Ishr ->
    assert false (* int-typed: compile_int *)

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
  match kind with
  | Kint ->
    let ca = compile_int impls a and cb = compile_int impls b in
    (match op with
     | Ceq -> fun f -> ca f = cb f
     | Cne -> fun f -> ca f <> cb f
     | Clt -> fun f -> ca f < cb f
     | Cle -> fun f -> ca f <= cb f
     | Cgt -> fun f -> ca f > cb f
     | Cge -> fun f -> ca f >= cb f)
  | Kfloat ->
    let ca = compile_expr impls a and cb = compile_expr impls b in
    (match op with
     | Ceq -> fun f -> as_float (ca f) = as_float (cb f)
     | Cne -> fun f -> as_float (ca f) <> as_float (cb f)
     | Clt -> fun f -> as_float (ca f) < as_float (cb f)
     | Cle -> fun f -> as_float (ca f) <= as_float (cb f)
     | Cgt -> fun f -> as_float (ca f) > as_float (cb f)
     | Cge -> fun f -> as_float (ca f) >= as_float (cb f))
  | Kstring ->
    let ca = compile_expr impls a and cb = compile_expr impls b in
    let scmp : string -> string -> bool =
      match op with
      | Ceq -> ( = ) | Cne -> ( <> ) | Clt -> ( < )
      | Cle -> ( <= ) | Cgt -> ( > ) | Cge -> ( >= )
    in
    fun f -> scmp (Value.to_string_exn (ca f)) (Value.to_string_exn (cb f))
  | Kvalue ->
    let ca = compile_expr impls a and cb = compile_expr impls b in
    (match op with
     | Ceq -> fun f -> Value.equal (ca f) (cb f)
     | Cne -> fun f -> not (Value.equal (ca f) (cb f))
     | Clt | Cle | Cgt | Cge -> assert false (* rejected by typecheck *))

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

(* The container of an lvalue's last step.  Navigation grows a variable
   array by one fresh element when an index lands one past the end, so
   code like [old.list[count].f = x] extends the list.  One field from a
   parameter, the prefix of Figure 5's and abl5's stores, is one closure;
   longer prefixes are one closure per step. *)
and compile_nav impls (base : lbase) (steps : lstep list) : frame -> Value.t =
  match base, steps with
  | Lbase_param p, [ Sfield i ] -> fun f -> field_of f.params.(p) i
  | _ ->
    let root : frame -> Value.t =
      match base with
      | Lbase_local s -> fun f -> f.locals.(s)
      | Lbase_param s -> fun f -> f.params.(s)
    in
    List.fold_left
      (fun nav -> function
         | Sfield i -> fun f -> field_of (nav f) i
         | Sindex (ix, ety) ->
           let ci = compile_int impls ix and fill = Value.default ety in
           fun f ->
             let a = nav f in
             let i = ci f in
             if i = Value.array_len a then Value.array_push a (Value.copy fill);
             Value.array_get a i)
      root steps

and compile_access impls (lv : tlval) : access =
  match lv.base, List.rev lv.steps with
  | Lbase_local s, [] ->
    assert (not (is_int lv.lty));
    Local s
  | Lbase_param s, [] -> Param s
  | base, last :: rev_init ->
    let nav = compile_nav impls base (List.rev rev_init) in
    (match last with
     | Sfield idx -> Field (nav, idx)
     | Sindex (ix, elem_ty) -> Elem (nav, compile_int impls ix, Value.default elem_ty))

(* A statement's expression, its value dropped. *)
let compile_effect impls (e : texpr) : frame -> unit =
  if int_local_write e then
    let c = compile_int impls e in
    fun f -> ignore (c f)
  else
    let c = compile_expr impls e in
    fun f -> ignore (c f)

(* --- element stores ------------------------------------------------------- *)

(* A statement [R.f1...fn[s].g = e;]: fields from a root, an index that is
   the bare local [s], then a field [g] of the element record, where [e]
   cannot write ({!pure}).  Figure 5's [old.src_list[src_count].ID = ...]
   is one. *)
type elem_store = {
  root : lbase;
  path : int list; (* f1 ... fn *)
  index : texpr; (* the local [s] *)
  slot : int; (* [s]'s slot *)
  elem : Ptype.record;
  field : int; (* g *)
  lty : Ptype.t; (* g's type *)
  rhs : texpr;
}

(* No assignment, [++]/[--], compound assignment or user-function call:
   evaluating the expression changes no local, parameter or message. *)
let rec pure (e : texpr) : bool =
  match e.n with
  | Tconst _ | Tlocal _ | Tparam _ -> true
  | Tfield (a, _) | Tneg a | Tfneg a | Tnot a | Tbnot a | Tcoerce (_, a) -> pure a
  | Tindex (a, b) | Tarith (_, a, b) | Tcmp (_, _, a, b) | Tand (a, b) | Tor (a, b) ->
    pure a && pure b
  | Tcond (a, b, c) -> pure a && pure b && pure c
  | Tcall (_, args) -> List.for_all pure args
  | Tassign _ | Tupdate _ | Tincr _ | Tufcall _ -> false

let elem_store (s : tstmt) : elem_store option =
  match s with
  | TSexpr { n = Tassign ({ base; steps; lty }, rhs); _ } ->
    let rec split path = function
      | [ Sindex (({ n = Tlocal slot; _ } as index), Record elem); Sfield field ] ->
        if pure rhs then Some { root = base; path = List.rev path; index; slot; elem; field; lty; rhs }
        else None
      | Sfield i :: rest -> split (i :: path) rest
      | _ -> None
    in
    split [] steps
  | _ -> None

(* Consecutive element stores into one element [R.P[s]] (the same root,
   field path and index local), as one closure.  Their right-hand sides
   cannot move [s], the path or the container, so the container and [s]
   are resolved once, and an error for an index below 0 or past the end is
   raised before any right-hand side runs, as the first store raised it.
   An index at the end appends one fresh element: fields no store assigns
   get fresh copies of their defaults, assigned ones hold the format's
   shared default until their store runs.  The stores then run in program
   order, each copying records and arrays as an assignment does.  If a
   right-hand side raises, every record or array field still holding the
   shared default gets its own copy, so nothing the group leaves behind is
   shared.  A store's value is always a fresh copy, never the shared
   default, so that test is exact. *)
let compile_group impls (group : elem_store list) : frame -> unit =
  let st = List.hd group in
  let container = compile_nav impls st.root (List.map (fun i -> Sfield i) st.path) in
  let ci = compile_int impls st.index in
  let fields = Array.of_list (List.map (fun st -> st.field) group) in
  let rhss = Array.of_list (List.map (fun st -> compile_assigned impls st.lty st.rhs) group) in
  let n = Array.length fields in
  let dflt = Value.entries (Value.default_record st.elem) in
  let assigned = Array.make (Array.length dflt) false in
  Array.iter (fun g -> assigned.(g) <- true) fields;
  let fresh_entry i (e : Value.entry) : Value.entry =
    if assigned.(i) then { e with v = e.v } else { e with v = Value.copy e.v }
  in
  let structured =
    List.sort_uniq compare
      (List.filter_map
         (fun st -> match st.lty with Record _ | Array _ -> Some st.field | Basic _ -> None)
         group)
  in
  let unshare (es : Value.entry array) =
    List.iter (fun g -> if es.(g).v == dflt.(g).v then es.(g).v <- Value.copy dflt.(g).v) structured
  in
  let fill f (es : Value.entry array) =
    for j = 0 to n - 1 do
      let v = rhss.(j) f in
      es.(fields.(j)).v <- v
    done
  in
  fun f ->
    let c = container f in
    let k = ci f in
    match c with
    | Value.Array d when k = d.Value.len ->
      let es = Array.mapi fresh_entry dflt in
      Value.array_push c (Value.Record es);
      (match fill f es with
       | () -> ()
       | exception ex ->
         unshare es;
         raise ex)
    | _ ->
      let e = Value.array_get c k in
      for j = 0 to n - 1 do
        Value.set_at e fields.(j) (rhss.(j) f)
      done

(* --- statements ---------------------------------------------------------- *)

let run_all (gs : (frame -> unit) array) (f : frame) =
  for i = 0 to Array.length gs - 1 do
    gs.(i) f
  done

let rec compile_stmt (impls : impls) (s : tstmt) : frame -> unit =
  let compile_cond = compile_cond impls in
  let compile_stmt = compile_stmt impls in
  match s with
  | TSnop -> fun _ -> ()
  | TSexpr e ->
    (match elem_store s with
     | Some st -> compile_group impls [ st ]
     | None -> compile_effect impls e)
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
    let cs = match step with Some e -> compile_effect impls e | None -> fun _ -> () in
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
    let csc = compile_int impls scrutinee in
    let bodies =
      Array.of_list (List.map (fun (a : Typecheck.tarm) -> compile_block impls a.t_body) arms)
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
      let v = csc f in
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
    let cs = compile_block impls ss in
    fun f -> run_all cs f
  | TSreturn None -> fun _ -> raise Ret
  | TSreturn (Some e) ->
    let ce = compile_expr impls e in
    fun f -> raise (Retv (ce f))
  | TSbreak -> fun _ -> raise Brk
  | TScontinue -> fun _ -> raise Cont

(* A statement list, each run of element stores into one element compiled
   as one group ({!compile_group}). *)
and compile_block impls (ss : tstmt list) : (frame -> unit) array =
  let same (a : elem_store) (b : elem_store) =
    a.root = b.root && a.path = b.path && a.slot = b.slot
  in
  let rec go acc = function
    | [] -> Array.of_list (List.rev acc)
    | s :: rest ->
      (match elem_store s with
       | None -> go (compile_stmt impls s :: acc) rest
       | Some st ->
         let rec take group = function
           | s :: rest as l ->
             (match elem_store s with
              | Some o when same st o -> take (o :: group) rest
              | _ -> (List.rev group, l))
           | [] -> (List.rev group, [])
         in
         let group, rest = take [ st ] rest in
         go (compile_group impls group :: acc) rest)
  in
  go [] ss

let compile (prog : tprog) : ecode_fn =
  (* compile user functions first; bodies reference the [impls] array at
     call time, so (mutual) recursion resolves after patching *)
  let nfuns = Array.length prog.tfuns in
  let impls : impls = Array.make nfuns (fun _ -> Value.Int 0) in
  Array.iteri
    (fun i (tf : Typecheck.tfun) ->
       let body = compile_block impls tf.tf_body in
       let nlocals = tf.tf_nlocals in
       let int_params = Array.of_list (List.map is_int tf.tf_params) in
       let nparams = Array.length int_params in
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
            let f =
              { locals = Array.make (max 1 nlocals) (Value.Int 0);
                ints = Array.make nlocals 0; params = [||] }
            in
            (* parameters occupy the first local slots *)
            for j = 0 to nparams - 1 do
              if int_params.(j) then f.ints.(j) <- as_int args.(j)
              else f.locals.(j) <- args.(j)
            done;
            try
              run_all body f;
              fallthrough_ret
            with
            | Ret -> fallthrough_ret
            | Retv v -> v))
    prog.tfuns;
  let body = compile_block impls prog.body in
  let nlocals = prog.nlocals in
  let nparams = List.length prog.params in
  fun params ->
    if Array.length params <> nparams then
      runtime_error "expected %d parameters, got %d" nparams (Array.length params);
    let f = { locals = Array.make (max 1 nlocals) (Value.Int 0); ints = Array.make nlocals 0; params } in
    try run_all body f with Ret | Retv _ -> ()
