(** Retro-transformations: the Ecode snippets a writer associates with a
    new format so receivers can convert messages into older formats
    (paper, Figure 1). *)

open Pbio

type spec = Meta.xform_spec = {
  source : Ptype.record option;
      (** the format the snippet reads from; [None] = the base format of
          the meta it is attached to *)
  target : Ptype.record;
  code : string;
}

type compiled = {
  source : Ptype.record;
  spec : spec;
  run : Value.t -> Value.t;
}

(** Execution engine for transformation code.  Production paths use
    [Compiled] (closure compilation, the dynamic-code-generation analogue);
    [Interpreted] exists for the A1 ablation. *)
type engine =
  | Compiled
  | Interpreted

(** Convenience constructor for writer-side registration.  [source]
    defaults to the base format of the meta the spec is attached to. *)
val spec : ?source:Ptype.record -> target:Ptype.record -> string -> spec

(** Parse, typecheck and compile a transformation from messages of
    [source] format into the spec's target, recording a compiled
    engine's compile into [ctx] (default [Ctx.default]) as
    [Ecode.compile] does.  Failures are [Error (`Xform _)]. *)
val compile :
  ?engine:engine -> ?ctx:Ctx.t -> source:Ptype.record -> spec ->
  (compiled, Err.t) result

(** Every format [meta]'s transformations reach from [meta.body] (itself
    first, with the empty path), each with its shortest spec path:
    breadth-first over the transformation graph, so multi-hop chains are
    found and cycles terminate. *)
val reachable : Meta.format_meta -> (Ptype.record * spec list) list

(** Compile each hop of a spec path, starting from [source] messages, and
    compose the hops into one function into the last hop's target (the
    identity for the empty path), each hop recorded into [ctx] as
    {!compile} records.  The first hop that fails to compile is the
    error. *)
val compile_chain :
  ?engine:engine -> ?ctx:Ctx.t -> source:Ptype.record -> spec list ->
  (Value.t -> Value.t, Err.t) result

(** Validate without keeping the compiled form: writers call this at
    registration time so broken snippets fail at the sender, not at some
    receiver. *)
val check : source:Ptype.record -> spec -> (unit, Err.t) result
