(** A compiled delivery plan: one decided morph path — the sender's
    format, the retro-transformation hops, the final target — built once
    and run per message.  {!Receiver} and the gateway decide paths by
    their own rules and run them through this one type.

    A plan keeps the [Pbio.Ctx.t] it was compiled for.  Per byte order it
    holds a wire closure — a fused decode->morph plan, or a staged decoder
    followed by the chain and the final conversion — compiled on the
    first message in that order.  A structural plan's closure comes from
    that context's codec cache (users of one context share compiled
    code); a collapsed chain's is compiled for the plan alone, timed into
    the same cache's registry, from a map checked when the plan was
    compiled, so compiling it cannot fail.  Later messages consult no
    cache.
    The Ecode hops and structural conversions the plan compiles are
    recorded into the context's registry ([ecode.*], [convert.*]; the
    [convert] = [compiled] trace attribute).  A plan is used by one
    domain at a time (docs/CONCURRENCY.md). *)

open Pbio

(** [Fused] decodes straight into the target layout; [Staged] decodes the
    sender's value tree, then transforms it.  A chain of straight-line
    hops fuses too: collapsed into one checked field map
    ({!Xform.collapse}). *)
type kind = Fused | Staged

(** How a delivery failed: the wire message is malformed ([Decode]: the
    codec's decode error, or a value of the wrong shape met while
    reading), or a hop, the final conversion or a fused plan's coercion
    failed on it ([Transform]). *)
type failure =
  | Decode of Err.t
  | Transform of string

(** The one exception {!run}, {!decode} and {!transform}'s function raise
    for a message.  Each front end catches it and keeps its own policy
    and texts. *)
exception Failed of failure

type t

(** Compile a plan from [source] messages through the hops [specs] into
    [target], recording into [ctx]; no wire code yet.  The plan picks its
    own {!kind}.  With no hops it is [Fused], an exact match included, and
    builds its value-tree conversion on the first {!transform}.  With hops
    it compiles them (with [engine], default compiled closures), then a
    structural conversion from their last target into [target] unless
    that is the same format.  When every hop is straight-line stores, the
    hops and the conversion collapse into one field map and, when
    {!Pbio.Codec.check_map} accepts it, the plan is [Fused]: a wire
    message decodes straight into [target] (never with the interpreted
    engine).  Any other chain is [Staged].  A hop that
    fails to compile is the error. *)
val compile :
  ?engine:Xform.engine ->
  ctx:Ctx.t ->
  source:Ptype.record ->
  specs:Xform.spec list ->
  target:Ptype.record ->
  unit ->
  (t, Err.t) result

val kind : t -> kind
val source : t -> Ptype.record
val target : t -> Ptype.record

(** The number of retro-transformation hops. *)
val hops : t -> int

(** From a [source] value to a [target] value: for a chain, collapsed or
    not, its hops run one after another, then the conversion.  Whatever
    they raise ({!Pbio.Value.Type_error}, {!Pbio.Coerce.Runtime_error})
    is [Failed (Transform _)]. *)
val transform : t -> Value.t -> Value.t

(** Decode and transform one complete wire message of the [source]
    format, allocating only the header read and the values built.  A
    malformed message is [Failed (Decode _)]; a hop, or a collapsed
    chain's coercion (checked only once the whole message has decoded),
    that fails is [Failed (Transform _)]. *)
val run : t -> string -> Value.t

(** The wire step of {!run}: a staged plan's decode into the [source]
    layout, recorded into the plan's context as {!Pbio.Wire.decode}
    records it; a fused plan's whole {!run}, unrecorded.  It fails as
    {!run} fails. *)
val decode : t -> string -> Value.t

(** [fused], [fused, N hops] for a collapsed chain, or [staged, N hops]. *)
val pp : Format.formatter -> t -> unit
