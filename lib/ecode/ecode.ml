(* Ecode: the C-subset transformation language of the paper (Section 3.2,
   Figure 5), with both a closure compiler (the dynamic-code-generation
   analogue used in production paths) and a naive interpreter (the ablation
   baseline).

   The conventional entry point for message morphing is {!compile_xform}:
   the snippet sees the incoming message as [new] and the outgoing message
   as [old], exactly as in the paper's Figure 5 code. *)

module Token = Token
module Lexer = Lexer
module Ast = Ast
module Parser = Parser
module Typecheck = Typecheck
module Compile = Compile
module Interp = Interp
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

type rhs =
  | Read of int * (Ptype.t * Coerce.t) list
  | Const of Value.t

type move = {
  dst : int;
  rhs : rhs;
}

(* A hop's typed body as stores, when it is nothing else: every top-level
   statement is [old.f = e;] with [e] a read [new.g] under the checker's
   assignment coercions only, or a constant, coerced now (a constant its
   coercion rejects fails every message, so it is no move).  [new] and
   [old] are parameters 0 and 1. *)
let moves_of (prog : Typecheck.tprog) : move list option =
  let open Typecheck in
  let rec rhs (e : texpr) =
    match e.n with
    | Tfield ({ n = Tparam 0; _ }, g) -> Some (Read (g, []))
    | Tconst v -> Some (Const v)
    | Tcoerce (co, a) ->
      (match rhs a with
       | Some (Read (g, cs)) -> Some (Read (g, cs @ [ (a.ty, co) ]))
       | Some (Const v) ->
         (match Coerce.compile ~from:a.ty co v with
          | v -> Some (Const v)
          | exception (Coerce.Runtime_error _ | Value.Type_error _) -> None)
       | None -> None)
    | _ -> None
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | TSnop :: rest -> go acc rest
    | TSexpr { n = Tassign ({ base = Lbase_param 1; steps = [ Sfield dst ]; _ }, e); _ }
      :: rest ->
      (match rhs e with
       | Some rhs -> go ({ dst; rhs } :: acc) rest
       | None -> None)
    | _ -> None
  in
  go [] prog.body

(* The paper's transformation shape: convert a [src]-format message into a
   fresh [dst]-format message.  Inside the snippet, [new] is the incoming
   message and [old] the outgoing one. *)
let compile_hop ?ctx ~(src : Ptype.record) ~(dst : Ptype.record) (code : string) :
  ((Value.t -> Value.t) * move list option, string) result =
  let params = [ ("new", Ptype.Record src); ("old", Ptype.Record dst) ] in
  match compile_typed ?ctx ~params code with
  | Error _ as e -> e
  | Ok (tprog, run) ->
    let sync = Value.compile_sync dst in
    Ok
      ( (fun input ->
          let output = Value.default_record dst in
          run [| input; output |];
          sync output;
          output),
        moves_of tprog )

let compile_xform ?ctx ~src ~dst code = Result.map fst (compile_hop ?ctx ~src ~dst code)

(* Interpreted variant of {!compile_xform}; same semantics, no code
   generation.  Used by the A1 ablation benchmark. *)
let interpret_xform ~(src : Ptype.record) ~(dst : Ptype.record) (code : string) :
  (Value.t -> Value.t, string) result =
  ignore src;
  match parse code with
  | Error _ as e -> e
  | Ok prog ->
    let sync = Value.compile_sync dst in
    Ok
      (fun input ->
         let output = Value.default_record dst in
         Interp.run ~params:[ ("new", input); ("old", output) ] prog;
         sync output;
         output)
