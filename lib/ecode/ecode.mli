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

(** How a hop fills one field of its target. *)
type rhs =
  | Read of int * (Ptype.t * Coerce.t) list
      (** field [g] of [new], then each assignment coercion, innermost
          first, from a value of the given type *)
  | Const of Value.t  (** a constant, its coercions already applied *)
  | Each of each
      (** an array a Figure 5 loop builds, element by element *)

(** A loop's element map: one target element per element of [new]'s
    array [array] whose [guard] is non-zero, or per element when there is
    none.  [count] is the field of [new] the loop's bound reads; a plan
    takes the map only where that is [array]'s length field and precedes
    it, so the loop runs once per decoded element.  The guard is field [p] of the source element under the checker's
    coercions, as the [if] tests it (a float is non-zero, as in C).  [fill]
    are moves over one element: [dst] a field of the target element,
    [Read] a field of the source element; every other field keeps the
    target element's default.  A loop that only copies each element
    whole, under no coercion, has no [fill] and no guard: it copies the
    array.  Nothing in an element map can fail. *)
and each = {
  array : int;
  count : int;
  guard : (int * (Ptype.t * Coerce.t) list) option;
  fill : move list option;
}

(** One store into the target: [dst] is the field's position in the
    target format. *)
and move = {
  dst : int;
  rhs : rhs;
}

(** {!compile_xform}, plus the hop's typed body as moves, in program
    order, when it is nothing but top-level stores [old.f = e;], each [e]
    a read [new.g] under the checker's assignment coercions or a
    constant.  The hop may also declare int locals with constants and
    run Figure 5's loops: [for (i = 0; i < new.N; i++)] over [new]'s
    array [A], whose body only appends to target arrays nothing stored
    into before, by element stores [old.B[i].f = new.A[i].g;] (or whole
    elements, [old.B[i] = new.A[i];]) and guarded appends
    [if (new.A[i].p) { old.C[k].f = new.A[i].g; ...; k++; }] with [k] a
    counter at 0 read afterwards only by [old.X = k;], [X] [C]'s length
    field.  Each such target is an {!Each} move.  Any other statement or
    shape — an [else], [break], nested loop, call, arithmetic, a read of
    [old], [i] or a counter used as a value, a coercion into an enum
    inside a loop — makes it [None]; so does a constant its coercion
    rejects.  The snippet is parsed and checked once for both. *)
val compile_hop :
  ?ctx:Ctx.t ->
  src:Ptype.record -> dst:Ptype.record -> string ->
  ((Value.t -> Value.t) * move list option, string) result

(** Interpreted variant of {!compile_xform}; same semantics, no code
    generation. *)
val interpret_xform :
  src:Ptype.record -> dst:Ptype.record -> string -> (Value.t -> Value.t, string) result
