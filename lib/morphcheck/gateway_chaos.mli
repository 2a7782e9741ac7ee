(** Chaos soak for the multi-tenant morphing gateway.

    Each case stresses one gateway on purpose — 16 plan slots for 24
    tenants, a 200/s per-tenant admission rate, a mass schema-push storm
    and a 3x overload burst — fault-free and then under the
    {!Chaos.profile} fault model, with parity cross-checking on for every
    delivery.  Shedding and eviction are expected; crashes, bound
    violations, reference divergence, non-determinism, more than 60% of
    a run's messages shed, and a campaign that never sheds or never
    evicts are failures.  See docs/GATEWAY.md and docs/FAULTS.md. *)

type failure = {
  case : int;  (** 0 for a failure of the whole campaign *)
  seed : int;
      (** the case's derived sub-seed, for standalone replay; the
          campaign's seed for case 0 *)
  reason : string;
}

(** What the campaign's runs did, summed over every run. *)
type totals = {
  runs : int;  (** 3 per case: 1 fault-free and 2 faulted *)
  delivered : int;
  shed_deadline : int;
  shed_quota : int;
  shed_breaker : int;
  shed_overload : int;
  shed_unknown : int;
  shed_no_meta : int;
  evictions : int;  (** plan-cache capacity evictions *)
  recompiles : int;
  trips : int;  (** breaker trips *)
}

type report = {
  cases : int;
  tenants_per_case : int;
  messages_per_case : int;
  totals : totals;
  failures : failure list;
}

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit

(** Run [cases] gateway chaos cases under sub-seeds derived from [seed];
    equal arguments replay identically.  Each case runs fault-free, then
    twice under [profile] (the two faulted runs must produce identical
    outcome digests).  [tenants] and [messages] size each case. *)
val run :
  ?profile:Chaos.profile ->
  seed:int ->
  cases:int ->
  ?tenants:int ->
  ?messages:int ->
  unit ->
  report

(** One extra stressed case with full telemetry armed: metrics registry,
    {!Obs.Flight} recorder and periodic scrapes, plus a poison tenant
    whose garbage frames guarantee breaker trips (and so at least one
    flight incident).  What the CLI soak exports as artifacts. *)
type observed = {
  o_metrics : Obs.t;
      (** per-tenant labeled families, per-reason drops, the lot *)
  o_flight : Obs.Flight.recorder;
  o_scrape : string;  (** ndjson periodic metric scrapes *)
  o_sent : int;
  o_delivered : int;
  o_trips : int;  (** breaker trips; >= 1 by construction *)
  o_incidents : int;  (** flight incidents captured; >= 1 by construction *)
  o_quiesced : bool;
}

(** Deterministic in [seed] (and the other arguments), like {!run}. *)
val run_observed :
  ?profile:Chaos.profile ->
  seed:int ->
  ?tenants:int ->
  ?messages:int ->
  ?scrape_every_s:float ->
  unit ->
  observed
