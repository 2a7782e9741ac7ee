(** Open-loop load harness over the virtual clock.

    A run drives a weighted population of sender format versions
    ({!Population}) through one of the end-to-end scenarios — ECho
    fan-out or the B2B broker — at a configured arrival rate
    ({!Dist}), with connection churn and optional fault profiles, all
    on {!Transport.Netsim}'s virtual clock.  Everything is seeded, so a
    run is a pure function of its {!config}: the {!summary} string and
    ndjson trajectory are byte-stable across processes, which is what
    the golden regression gates in [test/] assert on.  The ingress
    receiver delivers each message with [Morph.Receiver.deliver_wire];
    the equivalence of that path with decode-then-deliver and with the
    interpreted engine is the morphcheck [codec], [engines] and [chain]
    oracles' job. *)

module Dist = Dist
module Population = Population

type scenario =
  | Echo  (** clients -> ingress morph -> channel fan-out to mixed V1/V2 sinks *)
  | B2b  (** clients -> ingress morph -> retailer order -> broker -> supplier -> status *)

val scenario_of_string : string -> (scenario, string) result

type config = {
  scenario : scenario;
  clients : int;  (** population size; senders cost O(1) sim state each *)
  dist : Dist.t;  (** aggregate arrival process across active clients *)
  duration_s : float;  (** arrival window in simulated seconds *)
  churn_per_s : float;  (** membership events (alternating leave/join) per second *)
  versions : int;  (** lineage length: v0 (base) .. v[versions-1] (head) *)
  mix : float list option;  (** newest-first weights; [None] = 70/25/5 default *)
  sinks : int;  (** ECho scenario: sink subscribers (alternating V2/V1) *)
  faults : Transport.Netsim.faults;
  reliable : bool;  (** run inner hops (echo/b2b endpoints) reliably *)
  seed : int;
  samples : int;  (** trajectory sample count across the duration *)
  scrape_every_s : float;
      (** periodic metric scrape cadence on the virtual clock, simulated
          seconds; [0.] (the default) disables scraping.  Scrapes only
          read the registry, so they never perturb the run: the summary
          is byte-identical with scraping on or off. *)
}

val default : config

type via_counts = {
  mutable exact : int;
  mutable reordered : int;
  mutable converted : int;
  mutable morphed : int;
  mutable morphed_converted : int;
}

type report = {
  config : config;
  mix_desc : string;  (** {!Population.describe_mix} of the run's population *)
  sent : int;
  ingress_delivered : int;
  ingress_rejected : int;
  ingress_defaulted : int;
  vias : via_counts;
  delivered : int;  (** end-to-end: sink events (echo) or order statuses (b2b) *)
  joins : int;
  leaves : int;
  active_end : int;
  net_delivered : int;
  net_bytes : int;
  net_dropped : int;
  net_duplicated : int;
  latency : Obs.Histogram.snapshot option;
      (** end-to-end delivery latency, simulated seconds *)
  sim_end : float;
  quiesced : bool;
  trajectory : string;  (** ndjson, one sample object per line *)
  scrape : string;
      (** ndjson periodic metric scrapes
          ([{"scrape":N,"t":T,"series":[...]}] per line, plus one final
          scrape after the drain); empty unless [scrape_every_s > 0] *)
  metrics : Obs.t;  (** the run's full registry, for [--json] dumps *)
  flight : Obs.Flight.recorder;
      (** incident captures (receiver quarantines trigger one each) *)
}

(** Validate every config field up front — non-positive client counts,
    durations, version counts, sinks or samples, negative churn,
    non-positive arrival rates (via {!Dist.validate}) and degenerate
    mixes are all [Error (`Config _)] with the reason.  A config that
    passes cannot raise from inside {!run}. *)
val check : config -> (unit, Pbio.Err.t) result

(** Execute a run to quiescence.  Raises [Invalid_argument] (with the
    {!check} error's message) on an invalid config; CLI front-ends call
    {!check} and render the error themselves. *)
val run : config -> report

(** Latency percentile of the end-to-end histogram ([0.] when empty). *)
val percentile : report -> float -> float

(** The deterministic multi-line run summary the golden gates snapshot:
    config echo plus outcome, via, churn, network and latency
    (p50/p99/p999) lines. *)
val summary : report -> string

(** {1 The gateway scenario}

    Load against one multi-tenant morphing {!Gateway}: tenants sharing a
    handful of format lineages push meta-data and send
    {!Transport.Framing.Described} data envelopes, with optional
    mass schema-push storms and tenant churn (docs/GATEWAY.md). *)

type gateway_config = {
  g_tenants : int;
  g_lineages : int;
      (** distinct {!Population} lineages shared across tenants
          (tenant [i] uses lineage [i mod g_lineages]) *)
  g_dist : Dist.t;  (** aggregate arrivals across all active tenants *)
  g_duration_s : float;
  g_churn_per_s : float;
      (** alternating leave/join; a joining tenant returns one version
          newer and re-pushes its meta-data *)
  g_versions : int;
  g_push_at : float list;
      (** storm times (seconds into the load window): every tenant
          advances one version and re-pushes at once *)
  g_deadline_s : float;
      (** per-message deadline carried in the envelope; [0.] = none.
          Also how delivery latency is recovered (send time =
          deadline - [g_deadline_s]), so latency needs a deadline. *)
  g_gateway : Gateway.config;
  g_faults : Transport.Netsim.faults;
  g_seed : int;
  g_samples : int;
  g_scrape_every_s : float;
      (** periodic metric scrape cadence (simulated seconds); [0.] = off;
          same no-perturbation guarantee as {!config.scrape_every_s} *)
}

(** 200 tenants over 8 lineages, Poisson 4k/s for 0.5 s, 20 ms
    deadlines, no storms, default gateway config. *)
val default_gateway : gateway_config

type gateway_report = {
  g_config : gateway_config;
  g_sent : int;
  g_pushes : int;  (** meta pushes sent (onboarding + storms + rejoins) *)
  g_joins : int;
  g_leaves : int;
  g_active_end : int;
  g_stats : Gateway.stats;
  g_cache : Gateway.Plan_cache.stats;
  g_breakers_open_end : int;
  g_latency : Obs.Histogram.snapshot option;
      (** admitted-delivery latency, simulated seconds (empty when
          [g_deadline_s = 0]) *)
  g_sim_end : float;
  g_quiesced : bool;
  g_trajectory : string;  (** ndjson, one sample object per line *)
  g_scrape : string;
      (** ndjson periodic metric scrapes; empty unless
          [g_scrape_every_s > 0] *)
  g_metrics : Obs.t;
      (** full registry, including the per-tenant labeled families
          ([gateway.tenant.admitted] / [.shed] / [.deadline_missed]),
          per-rung deliveries and latencies, and [netsim.drops] by
          reason (docs/OBSERVABILITY.md) *)
  g_flight : Obs.Flight.recorder;
      (** incident captures: breaker trips, shed bursts, plan-cache
          eviction storms *)
}

(** Same contract as {!check}: every flag validated up front as
    [Error (`Config _)] data — including the embedded {!Gateway.config},
    whose [Invalid_argument] conditions are re-stated here — so a
    passing config cannot raise from inside {!run_gateway}. *)
val check_gateway : gateway_config -> (unit, Pbio.Err.t) result

val run_gateway : gateway_config -> gateway_report
val gateway_percentile : gateway_report -> float -> float

(** Deterministic multi-line summary ("gateway v1"): config echo plus
    delivery/shed/plan/cache/breaker/latency outcome lines. *)
val gateway_summary : gateway_report -> string
