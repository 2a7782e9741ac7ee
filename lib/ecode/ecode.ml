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

(* Parse, check and compile a program against named parameters.  The
   resulting function takes the parameter values in declaration order.
   Timed into [ctx]'s registry. *)
let compile ?(ctx = Ctx.default) ~(params : (string * Ptype.t) list) (src : string) :
  (Value.t array -> unit, string) result =
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
         Ok (Compile.compile tprog))
  in
  if m.compile_on then begin
    (match result with
     | Ok _ ->
       Obs.Counter.incr m.ecode_compiles;
       Obs.Histogram.observe m.ecode_ns (Obs.now m.compile_reg -. t0)
     | Error _ -> Obs.Counter.incr m.ecode_errors)
  end;
  result

(* The paper's transformation shape: convert a [src]-format message into a
   fresh [dst]-format message.  Inside the snippet, [new] is the incoming
   message and [old] the outgoing one. *)
let compile_xform ?ctx ~(src : Ptype.record) ~(dst : Ptype.record) (code : string) :
  (Value.t -> Value.t, string) result =
  let params = [ ("new", Ptype.Record src); ("old", Ptype.Record dst) ] in
  match compile ?ctx ~params code with
  | Error _ as e -> e
  | Ok run ->
    let sync = Value.compile_sync dst in
    Ok
      (fun input ->
         let output = Value.default_record dst in
         run [| input; output |];
         sync output;
         output)

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
