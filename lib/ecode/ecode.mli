(** Ecode: the C-subset transformation language of the paper (Section 3.2,
    Figure 5), with both a closure compiler (the dynamic-code-generation
    analogue used in production paths) and a naive interpreter (the A1
    ablation baseline).

    The conventional entry point for message morphing is {!compile_xform}:
    the snippet sees the incoming message as [new] and the outgoing message
    as [old], exactly as in the paper's Figure 5 code. *)

module Token : module type of Token
module Lexer : module type of Lexer
module Ast : module type of Ast
module Parser : module type of Parser
module Typecheck : module type of Typecheck
module Compile : module type of Compile
module Interp : module type of Interp
module Pp : module type of Pp

open Pbio

type program = Ast.prog

val parse : string -> (program, string) result

(** Parse, check and compile a program against named parameters.  The
    resulting function takes the parameter values in declaration order.
    The compile is recorded into [ctx] (default {!Ctx.default}):
    [ecode.compiles] / [ecode.compile_errors] counters, [ecode.compile_ns]
    latency and [ecode.stmt_count]. *)
val compile :
  ?ctx:Ctx.t ->
  params:(string * Ptype.t) list -> string -> (Value.t array -> unit, string) result

(** The paper's transformation shape: convert a [src]-format message into a
    fresh [dst]-format message.  Inside the snippet, [new] is the incoming
    message and [old] the outgoing one (initialised to the target format's
    defaults; variable-array length fields are re-synchronised after the
    snippet runs).  Recorded into [ctx] as {!compile} records. *)
val compile_xform :
  ?ctx:Ctx.t ->
  src:Ptype.record -> dst:Ptype.record -> string -> (Value.t -> Value.t, string) result

(** How a straight-line hop fills one field of its target. *)
type rhs =
  | Read of int * (Ptype.t * Coerce.t) list
      (** field [g] of [new], then each assignment coercion, innermost
          first, from a value of the given type *)
  | Const of Value.t  (** a constant, its coercions already applied *)

(** One top-level store [old.f = e;]: [dst] is [f]'s position in the
    target format. *)
type move = {
  dst : int;
  rhs : rhs;
}

(** {!compile_xform}, plus the hop's typed body as moves when it is
    nothing but top-level stores [old.f = e;], in program order, each [e]
    a read [new.g] under the checker's assignment coercions or a constant.
    Declarations, loops, branches, calls, arithmetic, nested lvalues and
    reads of [old] make it [None]; so does a constant its coercion
    rejects.  The snippet is parsed and checked once for both. *)
val compile_hop :
  ?ctx:Ctx.t ->
  src:Ptype.record -> dst:Ptype.record -> string ->
  ((Value.t -> Value.t) * move list option, string) result

(** Interpreted variant of {!compile_xform}; same semantics, no code
    generation. *)
val interpret_xform :
  src:Ptype.record -> dst:Ptype.record -> string -> (Value.t -> Value.t, string) result
