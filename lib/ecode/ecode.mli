(** Ecode: the C-subset transformation language of the paper (Section 3.2,
    Figure 5), with both a closure compiler (the dynamic-code-generation
    analogue used in production paths) and an interpreter of the same
    checked program (the reference compiled code is checked against, and
    the A1 ablation baseline).

    The conventional entry point for message morphing is {!compile_xform}:
    the snippet sees the incoming message as [new] and the outgoing message
    as [old], exactly as in the paper's Figure 5 code.  {!compile_hop} also
    reads a straight-line hop as a {!Pbio.Codec.field_map} over its source,
    the one form in which plans compose hops and the codec compiles
    them.

    Both engines run one checked program: a program the checker refuses
    is refused by both, with the checker's text, and a failure at run
    time raises {!Pbio.Coerce.Runtime_error}, or {!Pbio.Value.Type_error}
    from a value accessor, on both. *)

(** {1 Test seam}

    The lexer, the syntax tree and the pretty-printer, for the syntax
    tests (docs/TESTING.md); nothing outside test/ uses them. *)

module Token : module type of Token
module Lexer : module type of Lexer
module Ast : module type of Ast
module Pp : module type of Pp

(** {1 Programs} *)

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

(** {!compile}'s program, parsed and checked the same way, run by the
    tree-walking interpreter; nothing is recorded. *)
val interpret :
  params:(string * Ptype.t) list -> string -> (Value.t array -> unit, string) result

(** The paper's transformation shape: convert a [src]-format message into a
    fresh [dst]-format message.  Inside the snippet, [new] is the incoming
    message and [old] the outgoing one (initialised to the target format's
    defaults; variable-array length fields are re-synchronised after the
    snippet runs).  Recorded into [ctx] as {!compile} records. *)
val compile_xform :
  ?ctx:Ctx.t ->
  src:Ptype.record -> dst:Ptype.record -> string -> (Value.t -> Value.t, string) result

(** A hop as a field map over its source ({!Codec.field_map}): one slot
    per target field, each the target's default ([Const]) until a store
    overwrites it, the last store winning; a store whose coercion can
    fail (into an enum) is also one of the map's [checks].  A Figure 5
    loop's target is an element map ([Each]), and a lone whole-element
    copy is the source array itself ([Take (A, [])]).  [loops] holds each
    loop's bound and array, fields of the source: a plan takes the map
    only where the bound is the array's length field and precedes it, so
    the loop runs once per decoded element ({!Xform.collapse} checks it,
    since a chain may have changed either field by then). *)
type hop = {
  map : Codec.field_map;
  loops : (int * int) list;
}

(** {!compile_xform}, plus the hop's typed body as a field map, when it
    is nothing but top-level stores [old.f = e;], each [e] a read [new.g]
    under the checker's assignment coercions or a constant.  The hop
    may also declare int locals with constants and run Figure 5's loops:
    [for (i = 0; i < new.N; i++)] over [new]'s array [A], whose body only
    appends to target arrays nothing stored into before, by element
    stores [old.B[i].f = new.A[i].g;] (or whole elements, [old.B[i] =
    new.A[i];]) and guarded appends [if (new.A[i].p) { old.C[k].f =
    new.A[i].g; ...; k++; }] with [k] a counter at 0 read afterwards only
    by [old.X = k;], [X] [C]'s length field.  Element stores and guards
    coerce into no enum: an element map has no checks, so a failing
    coercion a later store overwrites would fail no message.  Any other
    statement or shape — an [else], [break], nested loop, call,
    arithmetic, a read of [old], [i] or a counter used as a value — makes
    it [None]; so does a constant its coercion rejects.  The snippet is
    parsed and checked once for both. *)
val compile_hop :
  ?ctx:Ctx.t ->
  src:Ptype.record -> dst:Ptype.record -> string ->
  ((Value.t -> Value.t) * hop option, string) result

(** Interpreted variant of {!compile_xform}: the same checked program, no
    code generation.  An ill-typed snippet is refused as {!compile_xform}
    refuses it. *)
val interpret_xform :
  src:Ptype.record -> dst:Ptype.record -> string -> (Value.t -> Value.t, string) result
