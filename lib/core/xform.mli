(** Retro-transformations: the Ecode snippets a writer associates with a
    new format so receivers can convert messages into older formats
    (paper, Figure 1).  A compiled hop keeps its closure and, when it is
    straight-line stores, its field map; {!collapse} composes a chain of
    such maps by substitution into one map the codec compiles. *)

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
  hop : Ecode.hop option;
      (** the hop as a field map ({!Ecode.compile_hop}) when it is
          straight-line stores; always [None] from the interpreter *)
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

(** Compile each hop of a spec path, starting from [source] messages,
    each hop recorded into [ctx] as {!compile} records.  The first hop
    that fails to compile is the error. *)
val compile_chain :
  ?engine:engine -> ?ctx:Ctx.t -> source:Ptype.record -> spec list ->
  (compiled list, Err.t) result

(** The hops run one after another: from [source] messages into the last
    hop's target (the identity for no hops). *)
val run_chain : compiled list -> Value.t -> Value.t

(** Compose straight-line hops from [source] messages, and a final
    structural conversion into [target] unless that is the last hop's
    target, into one checked field map.  The chain state is one slot per
    field of the current format, over the source; each hop's map
    ({!Ecode.compile_hop}) is substituted into it: a read becomes the
    slot it reads through the hop's coercions, run at plan time on a
    constant.  The hops' checks follow, in the order the hops run them.
    A Figure 5 loop collapses when its array still holds a source array
    whose length field precedes it and its bound still holds that field
    (or a constant array and its length): a whole-element copy is that
    array, and an element map reads it.  A later hop may move a built
    array whole, but reading its count or looping over it again falls
    back, as does a final conversion that takes either.
    {!Codec.check_map} checks each hop's map over the hop's formats when
    the hop has loops, so an element map a later hop drops must fit too,
    and last the composed map.  [None] (fall back to
    running the hops) when a hop has no map — other loops, branches,
    calls, arithmetic, the interpreted engine — when a plan-time coercion
    raises, when a hop's length sync could change a value (a variable
    array must come with its length field from a matching source pair),
    or when the check refuses a map. *)
val collapse :
  source:Ptype.record -> compiled list -> target:Ptype.record -> Codec.checked option

(** Validate without keeping the compiled form: writers call this at
    registration time so broken snippets fail at the sender, not at some
    receiver. *)
val check : source:Ptype.record -> spec -> (unit, Err.t) result
