(** Multi-tenant morphing gateway with overload protection
    (docs/GATEWAY.md).

    A broker-side node multiplexing many tenants over one process: each
    tenant pushes format meta-data (self-describing onboarding), then
    sends {!Transport.Framing.Described} data envelopes; the gateway
    sheds expired/over-quota/circuit-open work {e before} decoding, and
    plans morphs into the tenant's target format through one shared
    bounded {!Plan_cache} (singleflight-coalesced compiles).  Each plan
    is a {!Morph.Plan.t}, compiled once at the engine its shape needs
    and matched with {!Morph.Maxmatch.default_thresholds}; a thrashing
    cache shows as evictions and recompiles.  Pushed meta-data is
    decoded once per distinct encoding, and a plan built once per
    distinct (meta, target), shared by every tenant that pushes it;
    each tenant still waits its own virtual compile time.

    Constants, not options: a tenant's breaker opens after 3 consecutive
    delivery failures and probes again after 0.05 simulated seconds; a
    plan compiles in 20 simulated microseconds per cost unit; at most
    256 messages park behind one compile (docs/GATEWAY.md). *)

module Plan_cache = Plan_cache

(** The engine a plan runs: its {!Morph.Plan.kind}. *)
type rung = Morph.Plan.kind =
  | Fused
      (** structural match, or a chain of straight-line hops collapsed
          with its conversion: one fused decode->morph plan *)
  | Staged
      (** any other retro-transformation chain: compiled decode, then the
          composed Ecode hops and the conversion into the target *)

type config = {
  max_plans : int;  (** shared plan-cache entry bound (>= 1) *)
  tenant_quota : int;  (** per-tenant plan-cache entry quota (>= 1) *)
  admit_rate : float;
      (** per-tenant token-bucket refill, messages per simulated second
          (>= 0); [0.] disables rate admission *)
  admit_burst : float;  (** token-bucket capacity (>= 1 when rate > 0) *)
  parity : bool;
      (** cross-check every delivery against the interpretive reference
          decoder and count [gateway.parity_mismatches] *)
}

val default_config : config

(** [Error] naming the first field out of the range its comment states:
    the one statement of a valid config, which {!create} enforces. *)
val check_config : config -> (unit, string) result

(** Why a message was shed (before decode, never after). *)
type shed_reason =
  | Deadline  (** envelope deadline already expired *)
  | Quota  (** tenant token bucket empty *)
  | Breaker  (** tenant circuit open *)
  | Overload  (** 256 messages already parked behind the format's compile *)
  | Unknown_tenant  (** data before any meta push for this tenant *)
  | No_meta
      (** fingerprint never pushed by this tenant, or evicted: a tenant
          holds its 256 most recently used formats *)

type outcome =
  | Delivered of rung  (** handed to the delivery handler by this engine *)
  | Parked  (** waiting on an in-flight singleflight compile *)
  | Shed of shed_reason
  | Rejected of string  (** decode or transform failure (feeds the breaker) *)
  | Onboarded  (** meta push accepted *)
  | Ignored of string  (** frame the gateway does not terminate *)

type delivery = {
  tenant : int;
  fingerprint : int;
  deadline_ns : int;
  rung : rung;  (** the engine this message decoded at *)
  value : Pbio.Value.t;  (** the message, morphed into the tenant's target *)
}

type stats = {
  mutable meta_pushes : int;
  mutable meta_shared : int;
      (** accepted pushes whose bytes were already decoded: the decode
          memo served them *)
  mutable onboarded : int;  (** tenants created *)
  mutable admitted : int;  (** data messages past all admission gates *)
  mutable delivered : int;
  mutable delivered_fused : int;
  mutable delivered_staged : int;
  mutable shed_deadline : int;
  mutable shed_quota : int;
  mutable shed_breaker : int;
  mutable shed_overload : int;
  mutable shed_unknown : int;
  mutable shed_no_meta : int;
  mutable rejected : int;
  mutable bad_frames : int;
  mutable plan_compiles : int;
  mutable plan_recompiles : int;
      (** compiles for a (tenant, format) that had a plan before — the
          recompile-storm signal *)
  mutable plan_shared : int;
      (** compiles the plan memo served with a plan built for the same
          (meta, target) before, often another tenant's; real plan builds
          are [plan_compiles - plan_shared] *)
  mutable singleflight_coalesced : int;
      (** messages parked behind an already-in-flight compile *)
  mutable parity_mismatches : int;
  mutable breaker_trips : int;
  mutable breaker_recoveries : int;  (** half-open probes that re-closed *)
}

val shed_total : stats -> int

type t

(** [create ~net contact handler] builds a gateway that will deliver
    morphed values to [handler]; call {!attach} to register it on the
    network.  [metrics] feeds the [gateway.*] counter/gauge catalogue
    and delivery trace spans.  Plans compile their wire closures from
    {!Pbio.Ctx.default}'s codec cache, shared across tenants and with
    every other user of that context (docs/CONCURRENCY.md).
    [flight] arms an {!Obs.Flight} recorder: breaker trips, shed bursts
    and plan-cache eviction storms each freeze a bounded incident
    capture (spans + metrics snapshot) for post-mortem analysis
    (docs/OBSERVABILITY.md).  Raises [Invalid_argument] with
    {!check_config}'s text when the config is invalid. *)
val create :
  ?config:config ->
  ?metrics:Obs.t ->
  ?flight:Obs.Flight.recorder ->
  net:Transport.Netsim.t ->
  Transport.Contact.t ->
  (delivery -> unit) ->
  t

(** Register the gateway's handler at its contact on the network.
    Undecodable payloads count [bad_frames]; nothing raises. *)
val attach : t -> unit

(** Process one already-decoded frame (tests drive this directly).
    Terminates [Described] and [Traced (Described _)] envelopes —
    anything else is [Ignored]. *)
val handle_frame : t -> Transport.Framing.frame -> outcome

(** The routing fingerprint of a format description: what senders put in
    their {!Transport.Framing.Described} envelopes. *)
val fingerprint : Pbio.Meta.format_meta -> int

(** Convenience constructor for the sender side. *)
val envelope :
  tenant:int ->
  fingerprint:int ->
  ?deadline_ns:int ->
  Transport.Framing.frame ->
  Transport.Framing.frame

val stats : t -> stats
val cache_stats : t -> Plan_cache.stats

(** [None] for an unknown tenant. *)
val breaker_state : t -> int -> Morph.Breaker.state option

(** Tenants whose circuit is not closed. *)
val breakers_open : t -> int

(** Messages currently parked behind in-flight compiles. *)
val pending_depth : t -> int
