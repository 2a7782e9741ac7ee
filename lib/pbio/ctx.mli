(** The capability-style execution context for the morphing stack.

    A {!t} owns the {!Codec.cache} of compiled wire plans and the
    {!Obs.t} registry that every metric about those plans and the wire
    calls that run them is recorded into.  It is threaded through
    [Wire]/[Ecode]/[Morph.Plan]/[Morph.Receiver]/[Echo]/[B2b]/[Gateway]
    as a [?ctx] argument; omitted, it is {!default}.

    Compile metrics follow the context: codec plans tick [codec.*] on
    the cache's registry, and the structural conversions and Ecode hops
    a [Morph.Plan] compiles tick [convert.*] and [ecode.*] on the
    registry of the context the plan was compiled for.

    Sharing rules (docs/CONCURRENCY.md): the cache is internally
    synchronised and safe to share across domains; the [Obs.t] registry
    is single-domain-owned.  A ctx used from several domains should
    carry {!Obs.null} metrics, with per-shard registries merged at
    scrape time via {!Obs.merge_into}. *)

type t

(** Handles for [Wire]'s instruments. *)
type wire_metrics = {
  wire_on : bool;
  wire_reg : Obs.t;
  encodes : Obs.Counter.h;
  decodes : Obs.Counter.h;
  decode_errors : Obs.Counter.h;
  bytes_out : Obs.Counter.h;
  bytes_in : Obs.Counter.h;
  encode_ns : Obs.Histogram.h;
  decode_ns : Obs.Histogram.h;
}

(** Handles for the compiles above the codec: structural conversions
    ([convert.compiles], [convert.compile_ns]) and Ecode programs
    ([ecode.compiles], [ecode.compile_errors], [ecode.compile_ns], and
    [ecode.stmt_count], the statement count per compiled program — a
    proxy for the generated closure-chain length). *)
type compile_metrics = {
  compile_on : bool;
  compile_reg : Obs.t;
  convert_compiles : Obs.Counter.h;
  convert_ns : Obs.Histogram.h;
  ecode_compiles : Obs.Counter.h;
  ecode_errors : Obs.Counter.h;
  ecode_ns : Obs.Histogram.h;
  ecode_stmts : Obs.Histogram.h;
}

(** [create ()] builds an independent context with a fresh plan cache.
    [metrics] (default {!Obs.null}) becomes the context registry; every
    handle above and the cache's are minted into it here, so the registry
    lists each series before the first compile. *)
val create : ?metrics:Obs.t -> unit -> t

(** The process default: {!Obs.null} metrics over its own plan cache.
    Code that omits [?ctx] runs here. *)
val default : t

val codecs : t -> Codec.cache
val wire : t -> wire_metrics
val compiles : t -> compile_metrics
