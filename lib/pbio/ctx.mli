(** The capability-style execution context for the morphing stack.

    A {!t} bundles the state that used to be ambient process globals —
    the {!Codec.cache} of compiled wire plans, the {!Convert.memo} of
    one-shot converters, and the {!Obs.t} registry hot-path metrics are
    recorded into — into one explicit value, threaded through
    [Wire]/[Codec]/[Convert]/[Morph.Receiver]/[Echo]/[B2b]/[Gateway] as
    an optional [?ctx] argument.  Omitting [?ctx] everywhere reproduces
    the pre-context behaviour byte-for-byte through {!default}.

    Sharing rules (docs/CONCURRENCY.md): the caches are internally
    synchronised and safe to share across domains; the [Obs.t] registry
    is single-domain-owned.  A ctx used from several domains should
    carry {!Obs.null} metrics, with per-shard registries merged at
    scrape time via {!Obs.merge_into}. *)

type t

(** [create ()] builds an independent context with a fresh plan cache
    and convert memo.  [metrics] (default {!Obs.null}) becomes the
    context registry {e and} the plan cache's hit/eviction registry;
    [max_plans]/[stripes] are passed to {!Codec.create_cache}. *)
val create : ?metrics:Obs.t -> ?max_plans:int -> ?stripes:int -> unit -> t

(** Assemble a context from existing components, e.g. to share one plan
    cache between contexts with different metrics registries. *)
val v : ?metrics:Obs.t -> codecs:Codec.cache -> convs:Convert.memo -> unit -> t

(** The compatibility context: {!Obs.null} metrics over
    {!Codec.default_cache} and {!Convert.default_memo}.  Code that calls
    the context-free APIs runs here. *)
val default : t

val obs : t -> Obs.t
val codecs : t -> Codec.cache
val convs : t -> Convert.memo

