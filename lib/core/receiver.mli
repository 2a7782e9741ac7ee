(** Receiver-side message processing — Algorithm 2 of the paper.

    The expensive steps (MaxMatch over candidate formats, Ecode
    compilation, conversion planning) run only the first time a given
    incoming format is seen; the resulting pipeline — transform, then
    handler — is cached and reused for every later message of that
    format. *)

open Pbio

type handler = Value.t -> unit

(** How a delivered message reached its handler. *)
type via =
  | Exact  (** same structure; no per-message work *)
  | Reordered  (** perfect match, different field order *)
  | Converted  (** imperfect match: defaults filled, extras dropped *)
  | Morphed of string  (** Ecode retro-transformation to the named format *)
  | Morphed_converted of string
      (** transformation, then structural conversion to the registered
          format *)

val pp_via : Format.formatter -> via -> unit

type outcome =
  | Delivered of {
      format_name : string;
      via : via;
    }
  | Defaulted  (** no match; the default handler ran *)
  | Rejected of string  (** no match and no default handler *)

val pp_outcome : Format.formatter -> outcome -> unit

type stats = {
  mutable cache_hits : int;
  mutable cold_paths : int;
  mutable delivered : int;
  mutable rejected : int;
  mutable defaulted : int;
  mutable transform_failures : int;  (** run-time transformation errors *)
  mutable quarantined : int;  (** breaker trips (pipelines quarantined) *)
}

type t

(** Everything a receiver is created with, as one record: call sites name
    only the knobs they change and take the {!Config.v} builder's defaults
    for the rest. *)
module Config : sig
  type t = {
    thresholds : Maxmatch.thresholds;
    metrics : Obs.t;
        (** registry receiving the [receiver.*] counters and histograms
            (see docs/OBSERVABILITY.md) *)
    ctx : Ctx.t;
        (** capability context for planning and wire deliveries: each
            pipeline's {!Plan} compiles its wire closures from the
            context's codec cache, and its Ecode and conversion compiles
            and staged decodes record into the context's registry.
            Defaults to {!Ctx.default}; pass a context when receivers run
            on multiple domains (docs/CONCURRENCY.md) *)
    flight : Obs.Flight.recorder option;
        (** when set, every quarantine triggers an {!Obs.Flight} incident
            capture (kind ["quarantine"]) for post-mortem analysis *)
  }

  (** Keyword-argument builder: default thresholds, [Obs.null] metrics,
      {!Ctx.default}. *)
  val v :
    ?thresholds:Maxmatch.thresholds ->
    ?metrics:Obs.t ->
    ?ctx:Ctx.t ->
    ?flight:Obs.Flight.recorder ->
    unit ->
    t
end

(** [create ()] makes an empty receiver with [Config.v ()].  A cached
    pipeline whose transformation fails at run time 3 times in a row is
    quarantined: its {!Breaker} trips and stays open, so it turns every
    later delivery away before any transformation work (see
    docs/FAULTS.md). *)
val create : ?config:Config.t -> unit -> t

(** Register a format the application understands, with the handler invoked
    for (possibly morphed) messages delivered in that format.  Clears
    planned pipelines, since the matching space changed.  Raises
    [Invalid_argument] on an ill-formed format. *)
val register : t -> Ptype.record -> handler -> unit

(** Handler for messages no registered format accepts (the paper's default
    handler, Algorithm 2 fallback). *)
val set_default_handler : t -> (Meta.format_meta -> Value.t -> unit) -> unit

(** Observe every processed message: the transformed value (when one was
    produced) and the outcome.  Used by the chaos harness to compare
    per-record morphing outcomes across runs; [None] clears the probe. *)
val set_delivery_probe : t -> (Value.t option -> outcome -> unit) option -> unit

(** Process one incoming message given its format meta-data: cache lookup,
    else plan (MaxMatch over the format and its transformation targets,
    code generation, conversion), cache, run.

    The cached pipeline is found by the identity ([==]) of the meta value
    first: the receiver keeps 8 slots of meta values it has seen, and a
    lookup that misses them all takes one over, round-robin.  Pass the
    meta value you hold for the format, as [Transport.Conn] does per
    (peer, format id).  A fresh copy per message (say, a new
    {!Pbio.Meta.decode} each time) is delivered the same way but pays the
    structural key, a hash and an equality walk over the whole meta, on
    every message; [receiver.structural_lookups] counts those lookups.

    The structural table holds at most 512 pipelines and evicts the least
    recently used, so a sender pushing fresh metas cannot grow a receiver
    without bound.  An evicted format plans afresh on its next message,
    and its pipeline's breaker state is lost with it: a quarantined
    format that was evicted gets a fresh, closed breaker.  A pipeline an
    identity slot still holds keeps serving that slot. *)
val deliver : t -> Meta.format_meta -> Value.t -> outcome

(** Decode a complete wire message (as produced by {!Pbio.Wire.encode}
    under [meta]'s body format) and deliver it.  Malformed or truncated
    messages are {!Rejected}, never an exception: receivers stay up under
    hostile input.  The pipeline is found as for {!deliver}: by the meta
    value's identity first, so pass the same value for every message of a
    format.  The pipeline's {!Plan} then runs its compiled closure for the
    message's byte order, with no codec-cache lookup after the first
    message in that order.  A collapsed chain decodes straight into the
    registered format; a coercion it fails is a transformation failure,
    counted against the breaker, exactly as when the hops run one by
    one. *)
val deliver_wire : t -> Meta.format_meta -> string -> outcome

(** The plan {!deliver} would cache for messages of this format, built
    afresh: nothing is cached and no wire code is compiled.  [engine]
    compiles its hops (default compiled closures; [Interpreted] is the
    reference {!Morph.morph_to} offers).  [Error] is the rejection
    reason. *)
val plan : ?engine:Xform.engine -> t -> Meta.format_meta -> (Plan.t, string) result

(** Describe, without delivering or caching, what Algorithm 2 would do
    with messages of this format — for diagnostics and operator tooling:
    the registered format, the {!via}, and the plan kind, e.g.
    [deliver to LoadEvent via morphed(LoadEvent) [fused, 3 hops]]. *)
val explain : t -> Meta.format_meta -> string

val stats : t -> stats

(** Breaker state of the cached pipeline for this format meta, when one has
    been planned ([None] before the first delivery and after the
    pipeline's eviction). *)
val breaker_state : t -> Meta.format_meta -> Breaker.state option
