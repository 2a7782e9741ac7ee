(* Ecode: the C-subset transformation language of the paper (Section 3.2,
   Figure 5), with both a closure compiler (the dynamic-code-generation
   analogue used in production paths) and an interpreter of the same
   checked program (the reference compiled code is checked against, and
   the ablation baseline).

   The conventional entry point for message morphing is {!compile_xform}:
   the snippet sees the incoming message as [new] and the outgoing message
   as [old], exactly as in the paper's Figure 5 code. *)

module Token = Token
module Lexer = Lexer
module Ast = Ast
module Pp = Pp

open Pbio

type program = Ast.prog

(* Statement count of a program: a proxy for the length of the generated
   closure chain, reported per compile. *)
let rec stmt_size (s : Ast.stmt) : int =
  match s.Ast.s with
  | Ast.Decl _ | Expr _ | Return _ | Break | Continue | Empty -> 1
  | If (_, a, b) ->
    1 + stmt_size a + (match b with Some b -> stmt_size b | None -> 0)
  | For (init, _, _, body) ->
    1 + (match init with Some s -> stmt_size s | None -> 0) + stmt_size body
  | While (_, body) | Do_while (body, _) -> 1 + stmt_size body
  | Switch (_, arms) ->
    List.fold_left
      (fun acc (a : Ast.switch_arm) ->
         List.fold_left (fun acc s -> acc + stmt_size s) acc a.Ast.body)
      1 arms
  | Block body -> List.fold_left (fun acc s -> acc + stmt_size s) 1 body

let program_size (p : program) : int =
  let block acc body = List.fold_left (fun acc s -> acc + stmt_size s) acc body in
  block (List.fold_left (fun acc (f : Ast.fundef) -> block acc f.Ast.fbody) 0 p.Ast.funs)
    p.Ast.main

let parse (src : string) : (program, string) result = Parser.parse_program src

let typecheck ~(params : (string * Ptype.t) list) (prog : program) :
  (Typecheck.tprog, string) result =
  Typecheck.check ~params prog

(* Parse, check and compile a program against named parameters, keeping
   the typed program next to its closure.  Timed into [ctx]'s registry. *)
let compile_typed ?(ctx = Ctx.default) ~(params : (string * Ptype.t) list) (src : string)
  : (Typecheck.tprog * (Value.t array -> unit), string) result =
  let m = Ctx.compiles ctx in
  let t0 = if m.compile_on then Obs.now m.compile_reg else 0. in
  let result =
    match parse src with
    | Error _ as e -> e
    | Ok prog ->
      (match typecheck ~params prog with
       | Error _ as e -> e
       | Ok tprog ->
         if m.compile_on then
           Obs.Histogram.observe m.ecode_stmts (float_of_int (program_size prog));
         Ok (tprog, Compile.compile tprog))
  in
  if m.compile_on then begin
    (match result with
     | Ok _ ->
       Obs.Counter.incr m.ecode_compiles;
       Obs.Histogram.observe m.ecode_ns (Obs.now m.compile_reg -. t0)
     | Error _ -> Obs.Counter.incr m.ecode_errors)
  end;
  result

(* The resulting function takes the parameter values in declaration
   order. *)
let compile ?ctx ~params src = Result.map snd (compile_typed ?ctx ~params src)

(* The same checked program, run by the interpreter: no compile, and so
   nothing recorded. *)
let interpret ~params src =
  match parse src with
  | Error _ as e -> e
  | Ok prog -> Result.map Interp.run (typecheck ~params prog)

(* A hop's function: [run] over [new] and a fresh [old], then [dst]'s
   length sync. *)
let hop_fn (dst : Ptype.record) run =
  let sync = Value.compile_sync dst in
  fun input ->
    let output = Value.default_record dst in
    run [| input; output |];
    sync output;
    output

let hop_params ~src ~dst = [ ("new", Ptype.Record src); ("old", Ptype.Record dst) ]

type hop = {
  map : Codec.field_map;
  loops : (int * int) list;
}

(* What a top-level int local holds where the loop recogniser reads it: a
   constant, the number of elements a loop appended to target field [c],
   or nothing a recognised statement may read. *)
type local =
  | Known of int
  | Count_of of int
  | Spent

exception Staged

(* [e] as a slot: a read that [read] recognises, under the checker's
   coercions, or a constant, coerced now (a constant its coercion rejects
   fails every message, so it is no slot). *)
let rec slot_of read (e : Typecheck.texpr) : Codec.slot option =
  match read e with
  | Some g -> Some (Codec.Take (g, []))
  | None ->
    (match e.n with
     | Tconst v -> Some (Codec.Const v)
     | Tcoerce (co, a) ->
       (match slot_of read a with
        | Some (Take (g, steps)) -> Some (Codec.Take (g, steps @ [ Codec.Coerce (a.ty, co) ]))
        | Some (Const v) ->
          (match Coerce.compile ~from:a.ty co v with
           | v -> Some (Codec.Const v)
           | exception (Coerce.Runtime_error _ | Value.Type_error _) -> None)
        | Some (Each _) | None -> None)
     | _ -> None)

(* Whether [steps] can fail: a coercion into an enum can. *)
let can_fail steps =
  List.exists (function Codec.Coerce (_, Coerce.To_enum _) -> true | _ -> false) steps

(* [new.g]; [new] and [old] are parameters 0 and 1 *)
let top_read (e : Typecheck.texpr) =
  match e.n with Tfield ({ n = Tparam 0; _ }, g) -> Some g | _ -> None

(* Every field of [r] as its default, for stores to overwrite. *)
let defaults (r : Ptype.record) =
  Array.map
    (fun (e : Value.entry) -> Codec.Const e.Value.v)
    (Value.entries (Value.default_record r))

(* A hop's typed body as a field map over [new] into [dst], when it is
   nothing else: top-level stores [old.f = e;] with [e] a read [new.g] or
   a constant, int locals set to constants, and Figure 5's loops [for (i
   = 0; i < new.N; i++)] over the source's array [A].  Each field starts
   as [dst]'s default and the last store wins; a store whose coercion can
   fail (into an enum) is also a check, so it fails the message even when
   a later store overwrites its field.  Such a loop builds target arrays
   nothing stored into before: [old.B[i].f = new.A[i].g;] appends one [B]
   element per [A] element, and one guarded append per target, [if
   (new.A[i].p) { old.C[k].f = new.A[i].g; ...; k++; }] with [k] a
   counter at 0, one [C] element per [A] element whose [p] is non-zero.
   Each becomes an element map ([Each]); a lone whole-element copy
   [old.B[i] = new.A[i];] under no coercion is [A] itself.  After the
   loop, [k] may only be stored into [C]'s length field, which the hop's
   closing sync rewrites anyway.  Element stores and guards coerce into
   no enum: an element map has no checks, so a failing store a later
   store overwrites, in the element or over the whole list, would fail
   no message.  Such a coercion, any other statement or any other use of
   [i], [k] or [old] keeps the hop staged.  Whether [N] is [A]'s length
   field and precedes it, so a decoded [A] has exactly [N] elements, is
   [Xform.collapse]'s to check: a chain may have changed either by then,
   so each loop's (N, A) travels beside the map. *)
let hop_of (dst : Ptype.record) (prog : Typecheck.tprog) : hop option =
  let open Typecheck in
  let fields = Array.of_list dst.fields in
  (* the position of target variable array [i]'s length field *)
  let length_field i =
    match fields.(i).Ptype.ftype with
    | Ptype.Array { size = Length_field n; _ } -> Ptype.field_index dst n
    | Basic _ | Record _ | Array _ -> None
  in
  let slots = defaults dst and checks = ref [] and loops = ref [] in
  let locals = Array.make prog.nlocals Spent in
  let written = Array.make (Array.length fields) false in
  (* [l = c;] for an int local, as a declaration initialises it *)
  let rec constants = function
    | TSexpr
        { n =
            Tassign
              ( { base = Lbase_local l; steps = []; lty = Basic Int },
                { n = Tconst (Value.Int c); _ } );
          _ } ->
      locals.(l) <- Known c;
      true
    | TSblock ss -> List.for_all constants ss
    | _ -> false
  in
  (* [old.d = k;] where [k] counts a loop's appends to the array [d] is the
     length field of: the hop's sync writes the same count *)
  let count_store d (e : texpr) =
    match e.n, fields.(d).Ptype.ftype with
    | (Tlocal k | Tcoerce (To_uint, { n = Tlocal k; _ })), Basic (Int | Uint) ->
      (match locals.(k) with
       | Count_of c -> length_field c = Some d
       | Known _ | Spent -> false)
    | _ -> false
  in
  (* the int local [e] adds one to *)
  let incremented (e : texpr) =
    match e.n with
    | Tincr { delta = 1; is_float = false; lv = { base = Lbase_local k; steps = []; _ }; _ } ->
      Some k
    | Tupdate
        { lv = { base = Lbase_local k; steps = []; _ };
          rhs = { n = Tconst (Value.Int 1); _ };
          rslot;
          cur;
          value = { n = Tarith (Iadd, { n = Tlocal c; _ }, { n = Tlocal r; _ }); _ } }
      when c = cur && r = rslot ->
      Some k
    | _ -> None
  in
  let loop init cond step body =
    let i, count =
      match init, cond, step with
      | Some
          (TSexpr
             { n =
                 Tassign
                   ( { base = Lbase_local i; steps = []; lty = Basic Int },
                     { n = Tconst (Value.Int 0); _ } );
               _ }),
        Some { n = Tcmp (Clt, Kint, { n = Tlocal j; _ }, bound); _ },
        Some step
        when j = i && incremented step = Some i ->
        (match bound with
         | { n = Tfield ({ n = Tparam 0; _ }, n); ty = Basic Int }
         | { n = Tcoerce (To_int, { n = Tfield ({ n = Tparam 0; _ }, n); ty = Basic Uint }); _ } ->
           (i, n)
         | _ -> raise Staged)
      | _ -> raise Staged
    in
    (* [new.A[i]], noting [A] among the source arrays the body reads *)
    let arrays = ref [] in
    let elem (e : texpr) =
      match e.n with
      | Tindex ({ n = Tfield ({ n = Tparam 0; _ }, a); _ }, { n = Tlocal j; _ }) when j = i ->
        arrays := a :: !arrays;
        true
      | _ -> false
    in
    let elem_read (e : texpr) =
      match e.n with Tfield (x, g) when elem x -> Some g | _ -> None
    in
    (* one store [old.t[x].f = e;] or [old.t[x] = e;]: the target array and
       what the store fills, [`Whole] a bare copy of the element *)
    let store x (s : tstmt) =
      match s with
      | TSexpr
          { n =
              Tassign
                ( { base = Lbase_param 1;
                    steps = Sfield t :: Sindex ({ n = Tlocal y; _ }, _) :: rest;
                    _ },
                  e );
            _ }
        when y = x ->
        (match rest with
         | [] when elem e -> (t, `Whole)
         | [ Sfield f ] ->
           (match slot_of elem_read e with
            | Some (Take (_, steps)) when can_fail steps -> raise Staged
            | Some s -> (t, `Move (f, s))
            | None -> raise Staged)
         | _ -> raise Staged)
      | _ -> raise Staged
    in
    (* [if (guard) { stores; k++; }]: the target, [k], the guard and the
       stores *)
    let append g ss =
      let guard =
        match slot_of elem_read g with
        | Some (Take (p, steps)) when not (can_fail steps) -> (p, steps)
        | Some (Take _ | Const _ | Each _) | None -> raise Staged
      in
      match List.rev ss with
      | TSexpr incr :: (_ :: _ as rev_stores) ->
        let k = match incremented incr with Some k when k <> i -> k | _ -> raise Staged in
        let block = List.map (store k) (List.rev rev_stores) in
        let c = fst (List.hd block) in
        if List.exists (fun (t, _) -> t <> c) block then raise Staged;
        (c, k, guard, List.map snd block)
      | _ -> raise Staged
    in
    let body = match body with TSblock ss -> ss | s -> [ s ] in
    let stores, guarded =
      List.fold_left
        (fun (stores, guarded) -> function
           | TSnop -> (stores, guarded)
           | TSif (g, TSblock ss, None) -> (stores, append g ss :: guarded)
           | s -> (store i s :: stores, guarded))
        ([], []) body
    in
    let stores = List.rev stores and guarded = List.rev guarded in
    (* the unguarded stores by target *)
    let plain =
      List.map
        (fun t -> (t, List.filter_map (fun (u, st) -> if u = t then Some st else None) stores))
        (List.sort_uniq compare (List.map fst stores))
    in
    let a = match List.sort_uniq compare !arrays with [ a ] -> a | _ -> raise Staged in
    let targets = List.map fst plain @ List.map (fun (c, _, _, _) -> c) guarded in
    let counters = List.map (fun (_, k, _, _) -> k) guarded in
    let distinct l = List.length (List.sort_uniq compare l) = List.length l in
    if not (distinct targets && distinct counters) then raise Staged;
    List.iter
      (fun t ->
         if written.(t) || length_field t = None then raise Staged;
         written.(t) <- true)
      targets;
    List.iter (fun k -> if locals.(k) <> Known 0 then raise Staged) counters;
    locals.(i) <- Spent;
    List.iter (fun (c, k, _, _) -> locals.(k) <- Count_of c) guarded;
    (* target [t]'s element map: each element field its default, then the
       stores; a bare copy of the element takes every field *)
    let each ?guard t stores =
      match fields.(t).Ptype.ftype with
      | Ptype.Array { elem = Record r; _ } ->
        let elem = defaults r in
        List.iter
          (function
            | `Move (f, s) -> elem.(f) <- s
            | `Whole -> Array.iteri (fun f _ -> elem.(f) <- Codec.Take (f, [])) elem)
          stores;
        Codec.Each { array = a; guard; elem }
      | Basic _ | Record _ | Array _ -> raise Staged
    in
    loops := (count, a) :: !loops;
    List.iter
      (fun (t, stores) ->
         slots.(t) <- (match stores with [ `Whole ] -> Codec.Take (a, []) | _ -> each t stores))
      plain;
    List.iter (fun (c, _, guard, stores) -> slots.(c) <- each ~guard c stores) guarded
  in
  let rec go = function
    | [] -> ()
    | TSnop :: rest -> go rest
    | TSexpr { n = Tassign ({ base = Lbase_param 1; steps = [ Sfield d ]; _ }, e); _ } :: rest ->
      (match slot_of top_read e with
       | Some s ->
         written.(d) <- true;
         slots.(d) <- s;
         (match s with
          | Take (g, steps) when can_fail steps -> checks := (g, steps) :: !checks
          | Take _ | Const _ | Each _ -> ());
         go rest
       | None when count_store d e -> go rest
       | None -> raise Staged)
    | TSfor (init, cond, step, body) :: rest ->
      loop init cond step body;
      go rest
    | s :: rest when constants s -> go rest
    | _ -> raise Staged
  in
  match go prog.body with
  | () -> Some { map = { slots; checks = List.rev !checks }; loops = !loops }
  | exception Staged -> None

(* The paper's transformation shape: convert a [src]-format message into a
   fresh [dst]-format message.  Inside the snippet, [new] is the incoming
   message and [old] the outgoing one. *)
let compile_hop ?ctx ~(src : Ptype.record) ~(dst : Ptype.record) (code : string) :
  ((Value.t -> Value.t) * hop option, string) result =
  match compile_typed ?ctx ~params:(hop_params ~src ~dst) code with
  | Error _ as e -> e
  | Ok (tprog, run) ->
    let hop = match hop_of dst tprog with h -> h | exception Value.Type_error _ -> None in
    Ok (hop_fn dst run, hop)

let compile_xform ?ctx ~src ~dst code = Result.map fst (compile_hop ?ctx ~src ~dst code)

(* Interpreted variant of {!compile_xform}: the same checked program, no
   code generation.  The reference the oracles check compiled hops
   against, and the A1 ablation's baseline. *)
let interpret_xform ~(src : Ptype.record) ~(dst : Ptype.record) (code : string) :
  (Value.t -> Value.t, string) result =
  Result.map (hop_fn dst) (interpret ~params:(hop_params ~src ~dst) code)
