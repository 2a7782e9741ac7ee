(** Chaos soak for the multi-tenant morphing gateway.

    Each case stresses one gateway on purpose — tiny plan cache, tight
    quotas, a mass schema-push storm and a 3x overload burst —
    fault-free and then under the {!Chaos.profile} fault model, with
    parity cross-checking on for every delivery.  Shedding is expected;
    crashes, bound violations,
    reference divergence and non-determinism are failures.  See
    docs/GATEWAY.md and docs/FAULTS.md. *)

type failure = {
  case : int;
  seed : int;  (** the case's derived sub-seed, for standalone replay *)
  reason : string;
}

type report = {
  cases : int;
  tenants_per_case : int;
  messages_per_case : int;
  failures : failure list;
}

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit

(** Run [cases] gateway chaos cases under sub-seeds derived from [seed];
    equal arguments replay identically.  Each case runs fault-free, then
    twice under [profile] (the two faulted runs must produce identical
    outcome digests).  [shed_budget] bounds the tolerated shed fraction
    of sent messages (default 0.6 — the cases are built to overload). *)
val run :
  ?profile:Chaos.profile ->
  ?shed_budget:float ->
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
