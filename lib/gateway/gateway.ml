(* The broker-side morphing gateway: thousands of tenants, one process.

   Each tenant owns a format registry (fingerprint -> meta, fed by
   Described{Meta} pushes) and a target format its deliveries morph into,
   pinned by the first push, which onboards it: the lineage base.  The
   robustness machinery around the morphing core:

     - admission: a deadline carried in the Described envelope (work past
       its deadline is shed before any decode), a per-tenant token
       bucket, and a per-tenant circuit breaker over delivery failures;
     - one bounded plan cache shared across tenants
       (Plan_cache: LRU + per-tenant quotas), with singleflight compile
       coalescing so a mass schema push compiles each (tenant, format)
       plan once, not once per queued message;
     - under the per-tenant state, content-addressed memos: pushed
       meta-data is decoded once per distinct encoding, and a plan is
       built once per distinct (meta, target), whichever tenants push
       it.  Only the CPU work is shared: each tenant still parks, waits
       its virtual compile time and holds its own cache entry;
     - one compiled plan per (tenant, format), at the engine its shape
       needs: a fused decode->morph plan for a structural match or a
       chain of straight-line hops collapsed into one, a staged decoder
       plus the composed Ecode chain for any other
       retro-transformation chain.  A plan compiles once and is reused
       until evicted; while the shared cache thrashes, plans are evicted
       and recompiled, which shows as evictions, recompiles and the
       flight recorder's eviction-storm incident.

   Everything runs on Netsim's virtual clock: compiles take simulated
   time proportional to their deterministic cost units, so seeded runs
   replay byte-identically. *)

module Plan_cache = Plan_cache

open Pbio
module Netsim = Transport.Netsim
module Contact = Transport.Contact
module Framing = Transport.Framing
module Breaker = Morph.Breaker
module Maxmatch = Morph.Maxmatch
module Xform = Morph.Xform
module Plan = Morph.Plan

type rung = Plan.kind = Fused | Staged

(* --- configuration ------------------------------------------------------- *)

type config = {
  max_plans : int;
  tenant_quota : int;
  admit_rate : float;
  admit_burst : float;
  parity : bool;
}

let default_config =
  { max_plans = 1024; tenant_quota = 8; admit_rate = 0.; admit_burst = 16.; parity = false }

let check_config (c : config) : (unit, string) result =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if c.max_plans < 1 then err "max_plans must be >= 1 (got %d)" c.max_plans
  else if c.tenant_quota < 1 then err "tenant_quota must be >= 1 (got %d)" c.tenant_quota
  else if not (c.admit_rate >= 0.) then err "admit_rate must be >= 0 (got %g)" c.admit_rate
  else if c.admit_rate > 0. && not (c.admit_burst >= 1.) then
    err "admit_burst must be >= 1 when admit_rate is set (got %g)" c.admit_burst
  else Ok ()

(* The open -> half-open probe delay of a tenant's breaker, simulated
   seconds. *)
let breaker_cooldown_s = 0.05

(* Simulated seconds of compile latency per cost unit. *)
let compile_s_per_unit = 2e-5

(* Messages parked behind one in-flight compile; more are shed
   [Overload]. *)
let pending_cap = 256

(* --- outcomes ------------------------------------------------------------ *)

type shed_reason =
  | Deadline  (* envelope deadline already expired *)
  | Quota  (* tenant token bucket empty *)
  | Breaker  (* tenant circuit open *)
  | Overload  (* pending queue full *)
  | Unknown_tenant
  | No_meta  (* fingerprint never pushed, or evicted from the tenant's formats *)

type outcome =
  | Delivered of rung
  | Parked  (* waiting on an in-flight singleflight compile *)
  | Shed of shed_reason
  | Rejected of string  (* decode or transform failure *)
  | Onboarded  (* meta push accepted *)
  | Ignored of string  (* frame the gateway does not terminate *)

type delivery = {
  tenant : int;
  fingerprint : int;
  deadline_ns : int;
  rung : rung;
  value : Value.t;
}

(* --- mutable stats (mirrored to Obs when a registry is attached) --------- *)

type stats = {
  mutable meta_pushes : int;
  mutable meta_shared : int;
  mutable onboarded : int;
  mutable admitted : int;
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
  mutable plan_shared : int;
  mutable singleflight_coalesced : int;
  mutable parity_mismatches : int;
  mutable breaker_trips : int;
  mutable breaker_recoveries : int;
}

let shed_total (s : stats) =
  s.shed_deadline + s.shed_quota + s.shed_breaker + s.shed_overload
  + s.shed_unknown + s.shed_no_meta

type gmetrics = {
  gm_on : bool;
  gm_reg : Obs.t;
  gm_meta_pushes : Obs.Counter.h;
  gm_meta_shared : Obs.Counter.h;
  gm_admitted : Obs.Counter.h;
  gm_delivered : Obs.Counter.h;
  gm_shed : Obs.Counter.h;
  gm_shed_deadline : Obs.Counter.h;
  gm_shed_quota : Obs.Counter.h;
  gm_shed_breaker : Obs.Counter.h;
  gm_shed_overload : Obs.Counter.h;
  gm_rejected : Obs.Counter.h;
  gm_compiles : Obs.Counter.h;
  gm_recompiles : Obs.Counter.h;
  gm_plan_shared : Obs.Counter.h;
  gm_coalesced : Obs.Counter.h;
  gm_evictions : Obs.Counter.h;
  gm_parity_mismatches : Obs.Counter.h;
  gm_breaker_trips : Obs.Counter.h;
  gm_tenants : Obs.Gauge.h;
  gm_breakers_open : Obs.Gauge.h;
  gm_cache_entries : Obs.Gauge.h;
  gm_pending : Obs.Gauge.h;
  (* dimensional families (docs/OBSERVABILITY.md): which tenant is being
     admitted or shed, and which engine deliveries run at.  Tenant
     families are capped; tenants beyond the cap share the reserved
     ["other"] series, so a mass-onboarding storm cannot grow the
     registry without bound. *)
  gm_tenant_admitted : Obs.Labeled.counter;
  gm_tenant_shed : Obs.Labeled.counter;
  gm_tenant_deadline_missed : Obs.Labeled.counter;
  gm_rung_fused : Obs.Counter.h;
  gm_rung_staged : Obs.Counter.h;
}

(* Distinct per-tenant series kept before spilling to ["other"]. *)
let tenant_label_cardinality = 256

let shed_reason_label = function
  | Deadline -> "deadline"
  | Quota -> "quota"
  | Breaker -> "breaker"
  | Overload -> "overload"
  | Unknown_tenant -> "unknown_tenant"
  | No_meta -> "no_meta"

let make_gmetrics reg =
  let rung_delivered =
    Obs.Labeled.counter reg ~keys:[ "rung" ] "gateway.rung.delivered"
  in
  let rung_series r = Obs.Labeled.counter_series rung_delivered [ r ] in
  {
    gm_on = Obs.enabled reg;
    gm_reg = reg;
    gm_meta_pushes = Obs.Counter.make reg "gateway.meta_pushes";
    gm_meta_shared = Obs.Counter.make reg "gateway.meta_shared";
    gm_admitted = Obs.Counter.make reg "gateway.admitted";
    gm_delivered = Obs.Counter.make reg "gateway.delivered";
    gm_shed = Obs.Counter.make reg "gateway.shed";
    gm_shed_deadline = Obs.Counter.make reg "gateway.shed_deadline";
    gm_shed_quota = Obs.Counter.make reg "gateway.shed_quota";
    gm_shed_breaker = Obs.Counter.make reg "gateway.shed_breaker";
    gm_shed_overload = Obs.Counter.make reg "gateway.shed_overload";
    gm_rejected = Obs.Counter.make reg "gateway.rejected";
    gm_compiles = Obs.Counter.make reg "gateway.plan_compiles";
    gm_recompiles = Obs.Counter.make reg "gateway.plan_recompiles";
    gm_plan_shared = Obs.Counter.make reg "gateway.plan_shared";
    gm_coalesced = Obs.Counter.make reg "gateway.singleflight_coalesced";
    gm_evictions = Obs.Counter.make reg "gateway.plan_evictions";
    gm_parity_mismatches = Obs.Counter.make reg "gateway.parity_mismatches";
    gm_breaker_trips = Obs.Counter.make reg "gateway.breaker_trips";
    gm_tenants = Obs.Gauge.make reg "gateway.tenants";
    gm_breakers_open = Obs.Gauge.make reg "gateway.breakers_open";
    gm_cache_entries = Obs.Gauge.make reg "gateway.plan_cache_entries";
    gm_pending = Obs.Gauge.make reg "gateway.pending_depth";
    gm_tenant_admitted =
      Obs.Labeled.counter reg ~cardinality:tenant_label_cardinality
        ~keys:[ "tenant" ] "gateway.tenant.admitted";
    gm_tenant_shed =
      (* tuples here are (tenant, reason): give the family headroom for
         several reasons per tracked tenant before spilling *)
      Obs.Labeled.counter reg ~cardinality:(4 * tenant_label_cardinality)
        ~keys:[ "tenant"; "reason" ] "gateway.tenant.shed";
    gm_tenant_deadline_missed =
      Obs.Labeled.counter reg ~cardinality:tenant_label_cardinality
        ~keys:[ "tenant" ] "gateway.tenant.deadline_missed";
    gm_rung_fused = rung_series "fused";
    gm_rung_staged = rung_series "staged";
  }

(* --- plans ---------------------------------------------------------------- *)

(* What the cache holds: planning failures are cached too, so a format
   with no acceptable morph path costs one lookup per message, not one
   MaxMatch per message. *)
type cached =
  | Ready of Plan.t
  | Refused of string

(* A pushed encoding, decoded: the memo's value. *)
type pushed = { pu_meta : Meta.format_meta; pu_fp : int }

(* What a plan is a function of, besides the default thresholds and
   context every gateway plans with: the pushed meta and the tenant's
   target. *)
type plan_key = { pk_meta : Meta.format_meta; pk_target : Ptype.record }

(* Physical equality first: identical pushes share one decoded meta, and
   a lineage's tenants one target. *)
let same_plan_key a b =
  (a.pk_meta == b.pk_meta || Meta.equal a.pk_meta b.pk_meta)
  && (a.pk_target == b.pk_target || Ptype.equal_record a.pk_target b.pk_target)

(* --- tenants -------------------------------------------------------------- *)

type bucket = {
  b_rate : float;
  b_burst : float;
  mutable b_tokens : float;
  mutable b_last : float;
}

let bucket_admit b ~now =
  b.b_tokens <- Float.min b.b_burst (b.b_tokens +. ((now -. b.b_last) *. b.b_rate));
  b.b_last <- now;
  if b.b_tokens >= 1. then begin
    b.b_tokens <- b.b_tokens -. 1.;
    true
  end
  else false

(* One format a tenant pushed, under its fingerprint. *)
type tformat = {
  mutable tf_meta : Meta.format_meta;  (* a re-push replaces it *)
  mutable tf_compiled : bool;
      (* a plan was compiled for it: a later compile is a recompile (its
         plan was evicted) *)
}

(* The formats one tenant holds: a sender pushing fresh formats without
   end evicts its least recently used ones.  An evicted format's data
   frames still deliver while its plan is cached, and shed [No_meta] once
   that plan is gone too, until the format is pushed again.  Far above any
   lineage the loadgen or a campaign pushes (gateway-churn's tenants push
   6 versions each). *)
let formats_per_tenant = 256

type tstate = {
  ts_id : int;
  ts_target : Ptype.record;
  ts_target_hash : int;  (* [Ptype.hash_record ts_target], for the plan memo *)
  ts_formats : (int, tformat) Lru.t;
  ts_breaker : Breaker.t;
  ts_bucket : bucket option;
  ts_m_admitted : Obs.Counter.h;
      (* this tenant's series of gateway.tenant.admitted, resolved once
         at onboarding so per-message admission stays handle-speed *)
  ts_span_attrs : (string * string) list;
      (* the gateway.deliver span's attributes, built once at onboarding
         so a traced delivery builds none *)
}

(* --- the gateway ---------------------------------------------------------- *)

type pending = { pd_deadline_ns : int; pd_message : string }

(* Tenants by id, hashed and compared as ints: no generic hash or
   compare on the per-message lookup. *)
module Tenants = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash (id : int) = id land max_int
end)

type t = {
  config : config;
  net : Netsim.t;
  contact : Contact.t;
  m : gmetrics;
  tenants : tstate Tenants.t;
  cache : cached Plan_cache.t;
  metas : (string, pushed) Lru.t;  (* pushed bytes -> their decode *)
  plans : (plan_key, cached) Lru.t;  (* what [plan_for] gave each key *)
      (* Both memos are capped at [max_plans], so the plan memo never
         holds more plans than the cache it serves.  The gateway is
         driven from one domain (Netsim's event loop), so plain [Lru]s
         suffice. *)
  inflight : (int * int, pending Queue.t) Hashtbl.t;
  mutable pending_depth : int;
  on_delivery : delivery -> unit;
  flight : Obs.Flight.recorder option;
  (* anomaly-burst detection for the flight recorder: sheds and cache
     evictions are counted in short windows of simulated time; crossing
     a threshold within one window triggers one incident capture *)
  mutable fl_shed_win_start : float;
  mutable fl_shed_win_n : int;
  mutable fl_evict_win_start : float;
  mutable fl_evict_win_n : int;
  stats : stats;
}

(* Burst windows: a trigger fires when this many sheds (or evictions)
   land within one window of simulated time. *)
let flight_burst_window_s = 0.05
let flight_shed_burst = 100
let flight_evict_burst = 32

let now_s t = Netsim.now t.net
let now_ns t = Netsim.now t.net *. 1e9

let fingerprint (meta : Meta.format_meta) : int = Meta.hash meta land max_int

let envelope ~tenant ~fingerprint ?(deadline_ns = 0) frame =
  Framing.Described { tenant; fingerprint; deadline_ns; frame }

let create ?(config = default_config) ?(metrics = Obs.null) ?flight ~net contact
    (on_delivery : delivery -> unit) : t =
  Result.iter_error (fun m -> invalid_arg ("Gateway.create: " ^ m)) (check_config config);
  let m = make_gmetrics metrics in
  let t_ref = ref None in
  let cache =
    Plan_cache.create ~max_entries:config.max_plans ~tenant_quota:config.tenant_quota
      ~on_evict:(fun ~tenant:_ ~key:_ ->
        match !t_ref with
        | Some t ->
          if t.m.gm_on then Obs.Counter.incr t.m.gm_evictions;
          (match t.flight with
           | Some fl ->
             let now = now_s t in
             if now -. t.fl_evict_win_start > flight_burst_window_s then begin
               t.fl_evict_win_start <- now;
               t.fl_evict_win_n <- 0
             end;
             t.fl_evict_win_n <- t.fl_evict_win_n + 1;
             if t.fl_evict_win_n = flight_evict_burst then
               Obs.Flight.trigger fl ~kind:"eviction_storm"
                 ~reason:
                   (Fmt.str "%d plan-cache evictions within %gs"
                      flight_evict_burst flight_burst_window_s)
           | None -> ())
        | None -> ())
      ()
  in
  let t =
    {
      config;
      net;
      contact;
      m;
      tenants = Tenants.create 256;
      cache;
      metas = Lru.create ~equal:String.equal ~cap:config.max_plans;
      plans = Lru.create ~equal:same_plan_key ~cap:config.max_plans;
      inflight = Hashtbl.create 64;
      pending_depth = 0;
      on_delivery;
      flight;
      fl_shed_win_start = neg_infinity;
      fl_shed_win_n = 0;
      fl_evict_win_start = neg_infinity;
      fl_evict_win_n = 0;
      stats =
        {
          meta_pushes = 0; meta_shared = 0; onboarded = 0; admitted = 0;
          delivered = 0; delivered_fused = 0; delivered_staged = 0;
          shed_deadline = 0; shed_quota = 0; shed_breaker = 0;
          shed_overload = 0; shed_unknown = 0; shed_no_meta = 0;
          rejected = 0; bad_frames = 0; plan_compiles = 0;
          plan_recompiles = 0; plan_shared = 0; singleflight_coalesced = 0;
          parity_mismatches = 0; breaker_trips = 0; breaker_recoveries = 0;
        };
    }
  in
  t_ref := Some t;
  t

let stats t = t.stats
let cache_stats t = Plan_cache.stats t.cache

let breaker_state t tenant =
  Option.map (fun ts -> Breaker.state ts.ts_breaker)
    (Tenants.find_opt t.tenants tenant)

let breakers_open t =
  Tenants.fold
    (fun _ ts acc ->
       if Breaker.state ts.ts_breaker <> Breaker.Closed then acc + 1 else acc)
    t.tenants 0

let new_tenant t id (target : Ptype.record) =
  let ts =
    {
      ts_id = id;
      ts_target = target;
      ts_target_hash = Ptype.hash_record target;
      ts_formats = Lru.create ~equal:Int.equal ~cap:formats_per_tenant;
      ts_breaker =
        Breaker.create ~cooldown_s:breaker_cooldown_s
          ?on_trip:
            (match t.flight with
             | None -> None
             | Some fl ->
               Some
                 (fun b ->
                    Obs.Flight.trigger fl ~kind:"breaker_trip"
                      ~reason:
                        (Fmt.str "tenant %d breaker tripped open (trip #%d)"
                           id (Breaker.trips b))))
          ();
      ts_bucket =
        (if t.config.admit_rate > 0. then
           Some
             { b_rate = t.config.admit_rate; b_burst = t.config.admit_burst;
               b_tokens = t.config.admit_burst; b_last = Netsim.now t.net }
         else None);
      ts_m_admitted =
        Obs.Labeled.counter_series t.m.gm_tenant_admitted
          [ string_of_int id ];
      ts_span_attrs = [ ("gateway.tenant", string_of_int id) ];
    }
  in
  Tenants.replace t.tenants id ts;
  t.stats.onboarded <- t.stats.onboarded + 1;
  if t.m.gm_on then
    Obs.Gauge.set t.m.gm_tenants (float_of_int (Tenants.length t.tenants));
  ts

let set_cache_gauges t =
  if t.m.gm_on then
    Obs.Gauge.set t.m.gm_cache_entries (float_of_int (Plan_cache.size t.cache))

(* --- planning -------------------------------------------------------------- *)

(* The gateway's slice of Algorithm 2, with the candidate set pinned to
   the tenant's single target format: direct structural match, else the
   shortest retro-transformation chain whose endpoint matches; the plan
   picks its own engine.  Decided when a format's first message arrives;
   the plan's wire closures compile on the first message of each byte
   order. *)
let plan_for (meta : Meta.format_meta) (target : Ptype.record) :
  (Plan.t, string) result =
  let fm = meta.Meta.body in
  let matches f =
    Ptype.equal_record f target
    || Maxmatch.qualifies Maxmatch.default_thresholds (Maxmatch.evaluate_pair f target)
  in
  match
    if matches fm then Some []
    else
      List.find_map
        (fun (f, path) -> if path <> [] && matches f then Some path else None)
        (Xform.reachable meta)
  with
  | None ->
    Error
      (Fmt.str "no acceptable match for format %S against the tenant target %S"
         fm.Ptype.rname target.Ptype.rname)
  | Some specs ->
    Result.map_error Err.to_string
      (Plan.compile ~ctx:Ctx.default ~source:fm ~specs ~target ())

(* Deterministic compile-cost units ([Ptype.weight], not wall time): a
   fused plan compiles reader plans over both formats, a staged plan only
   the source decoder. *)
let compile_cost (plan : Plan.t) =
  let source = Ptype.weight (Plan.source plan) in
  match Plan.kind plan with
  | Fused -> float_of_int (source + Ptype.weight (Plan.target plan))
  | Staged -> float_of_int source

(* --- delivery -------------------------------------------------------------- *)

(* Cross-check a delivered value against the interpretive reference: the
   reference decoder plus the plan's value transform, re-encoded under the
   target, must be byte-identical. *)
let check_parity t (plan : Plan.t) (message : string) (v : Value.t) =
  let target = Plan.target plan in
  let agree =
    match
      let endian = (Codec.read_header message).Codec.endian in
      let want =
        Codec.Interp.decode_payload ~endian ~pos:Codec.header_size (Plan.source plan)
          message
        |> Plan.transform plan
        |> Codec.Interp.encode_payload ~endian:Codec.Little target
      in
      String.equal (Codec.Interp.encode_payload ~endian:Codec.Little target v) want
    with
    | agree -> agree
    | exception _ -> false
  in
  if not agree then begin
    t.stats.parity_mismatches <- t.stats.parity_mismatches + 1;
    if t.m.gm_on then Obs.Counter.incr t.m.gm_parity_mismatches
  end

let record_failure t (ts : tstate) msg : outcome =
  t.stats.rejected <- t.stats.rejected + 1;
  if t.m.gm_on then Obs.Counter.incr t.m.gm_rejected;
  if Breaker.record_failure ts.ts_breaker ~now:(now_s t) then begin
    t.stats.breaker_trips <- t.stats.breaker_trips + 1;
    if t.m.gm_on then begin
      Obs.Counter.incr t.m.gm_breaker_trips;
      Obs.Gauge.set t.m.gm_breakers_open (float_of_int (breakers_open t))
    end
  end;
  Rejected msg

(* A delivery's outcome, built once rather than per message. *)
let delivered_fused = Delivered Fused
let delivered_staged = Delivered Staged

let deliver_now t (ts : tstate) (plan : Plan.t) ~fingerprint:fp ~deadline_ns
    (message : string) : outcome =
  match Plan.run plan message with
  | v ->
    if t.config.parity then check_parity t plan message v;
    if Breaker.record_success ts.ts_breaker then begin
      t.stats.breaker_recoveries <- t.stats.breaker_recoveries + 1;
      if t.m.gm_on then
        Obs.Gauge.set t.m.gm_breakers_open (float_of_int (breakers_open t))
    end;
    t.stats.delivered <- t.stats.delivered + 1;
    let rung = Plan.kind plan in
    let outcome =
      match rung with
      | Fused ->
        t.stats.delivered_fused <- t.stats.delivered_fused + 1;
        Obs.Counter.incr t.m.gm_rung_fused;
        delivered_fused
      | Staged ->
        t.stats.delivered_staged <- t.stats.delivered_staged + 1;
        Obs.Counter.incr t.m.gm_rung_staged;
        delivered_staged
    in
    let d = { tenant = ts.ts_id; fingerprint = fp; deadline_ns; rung; value = v } in
    if t.m.gm_on then begin
      Obs.Counter.incr t.m.gm_delivered;
      Obs.Trace.with_span ~attrs:ts.ts_span_attrs t.m.gm_reg "gateway.deliver"
        (fun () -> t.on_delivery d)
    end
    else t.on_delivery d;
    outcome
  | exception Plan.Failed (Decode e) ->
    record_failure t ts (Fmt.str "decode failed: %s" (Err.message e))
  | exception Plan.Failed (Transform msg) ->
    record_failure t ts (Fmt.str "transformation failed: %s" msg)

let shed t ~tenant (reason : shed_reason) : outcome =
  (match reason with
   | Deadline -> t.stats.shed_deadline <- t.stats.shed_deadline + 1
   | Quota -> t.stats.shed_quota <- t.stats.shed_quota + 1
   | Breaker -> t.stats.shed_breaker <- t.stats.shed_breaker + 1
   | Overload -> t.stats.shed_overload <- t.stats.shed_overload + 1
   | Unknown_tenant -> t.stats.shed_unknown <- t.stats.shed_unknown + 1
   | No_meta -> t.stats.shed_no_meta <- t.stats.shed_no_meta + 1);
  if t.m.gm_on then begin
    Obs.Counter.incr t.m.gm_shed;
    (match reason with
     | Deadline -> Obs.Counter.incr t.m.gm_shed_deadline
     | Quota -> Obs.Counter.incr t.m.gm_shed_quota
     | Breaker -> Obs.Counter.incr t.m.gm_shed_breaker
     | Overload -> Obs.Counter.incr t.m.gm_shed_overload
     | Unknown_tenant | No_meta -> ());
    let tid = string_of_int tenant in
    Obs.Labeled.incr t.m.gm_tenant_shed [ tid; shed_reason_label reason ];
    if reason = Deadline then
      Obs.Labeled.incr t.m.gm_tenant_deadline_missed [ tid ]
  end;
  (match t.flight with
   | Some fl ->
     let now = now_s t in
     if now -. t.fl_shed_win_start > flight_burst_window_s then begin
       t.fl_shed_win_start <- now;
       t.fl_shed_win_n <- 0
     end;
     t.fl_shed_win_n <- t.fl_shed_win_n + 1;
     if t.fl_shed_win_n = flight_shed_burst then
       Obs.Flight.trigger fl ~kind:"shed_burst"
         ~reason:
           (Fmt.str "%d messages shed within %gs (last: tenant %d, %s)"
              flight_shed_burst flight_burst_window_s tenant
              (shed_reason_label reason))
   | None -> ());
  Shed reason

let park t q ~deadline_ns message =
  Queue.push { pd_deadline_ns = deadline_ns; pd_message = message } q;
  t.pending_depth <- t.pending_depth + 1;
  (* maintained as deltas (not [set]) so per-shard pending depths sum
     correctly when registries merge at scrape time *)
  if t.m.gm_on then Obs.Gauge.add t.m.gm_pending 1.

let unpark t =
  t.pending_depth <- t.pending_depth - 1;
  if t.m.gm_on then Obs.Gauge.add t.m.gm_pending (-1.)

(* [plan_for]'s answer for the tenant's format, from the plan memo when
   another tenant (or this one, before an eviction) already asked it;
   [true] when it did.  The hash mixes the format's fingerprint with the
   target's, computed when the tenant onboarded. *)
let planned t (ts : tstate) ~fingerprint:fp (tf : tformat) : cached * bool =
  let key = { pk_meta = tf.tf_meta; pk_target = ts.ts_target } in
  let hash = Hashtbl.seeded_hash ts.ts_target_hash fp in
  match Lru.find t.plans ~hash key with
  | Some c -> (c, true)
  | None ->
    let c =
      match plan_for tf.tf_meta ts.ts_target with
      | Ok plan -> Ready plan
      | Error msg -> Refused msg
    in
    ignore (Lru.add t.plans ~hash key c : int);
    (c, false)

(* Singleflight compile for (tenant, fingerprint): the first message
   starts the simulated compile and parks; every further message while it
   is in flight parks behind it (coalesced).  Completion caches the plan
   and drains the parked queue, re-checking each message's deadline.  A
   plan the memo shares still waits its virtual compile time, so the
   tenant parks exactly as if it had built it. *)
let start_compile t (ts : tstate) ~fingerprint:fp (tf : tformat) ~deadline_ns
    (message : string) : outcome =
  match planned t ts ~fingerprint:fp tf with
  | Refused msg, _ ->
    (* planning refusals are cached and immediate: there is no artifact
       to compile, so nothing to wait for *)
    Plan_cache.add t.cache ~tenant:ts.ts_id ~key:fp (Refused msg);
    set_cache_gauges t;
    record_failure t ts msg
  | Ready plan, shared ->
    let key = (ts.ts_id, fp) in
    let q = Queue.create () in
    Hashtbl.replace t.inflight key q;
    park t q ~deadline_ns message;
    let cost = compile_cost plan in
    t.stats.plan_compiles <- t.stats.plan_compiles + 1;
    if t.m.gm_on then Obs.Counter.incr t.m.gm_compiles;
    if shared then begin
      t.stats.plan_shared <- t.stats.plan_shared + 1;
      if t.m.gm_on then Obs.Counter.incr t.m.gm_plan_shared
    end;
    if tf.tf_compiled then begin
      t.stats.plan_recompiles <- t.stats.plan_recompiles + 1;
      if t.m.gm_on then Obs.Counter.incr t.m.gm_recompiles
    end
    else tf.tf_compiled <- true;
    Netsim.after t.net (compile_s_per_unit *. cost) (fun () ->
        Hashtbl.remove t.inflight key;
        Plan_cache.add t.cache ~tenant:ts.ts_id ~key:fp (Ready plan);
        set_cache_gauges t;
        Queue.iter
          (fun { pd_deadline_ns; pd_message } ->
             unpark t;
             if pd_deadline_ns > 0 && now_ns t > float_of_int pd_deadline_ns
             then ignore (shed t ~tenant:ts.ts_id Deadline : outcome)
             else
               ignore
                 (deliver_now t ts plan ~fingerprint:fp
                    ~deadline_ns:pd_deadline_ns pd_message
                  : outcome))
          q);
    Parked

(* Route one admitted data message: deliver on a cached plan, park behind
   an in-flight compile, or start one. *)
let handle_data t (ts : tstate) ~fingerprint:fp ~deadline_ns (message : string) :
  outcome =
  match Plan_cache.find t.cache ~tenant:ts.ts_id ~key:fp with
  | Some (Ready plan) -> deliver_now t ts plan ~fingerprint:fp ~deadline_ns message
  | Some (Refused msg) -> record_failure t ts msg
  | None ->
    (match Hashtbl.find_opt t.inflight (ts.ts_id, fp) with
     | Some q ->
       (* singleflight: a compile for this (tenant, format) is already in
          flight; park behind it rather than compiling again *)
       if Queue.length q >= pending_cap then
         shed t ~tenant:ts.ts_id Overload
       else begin
         park t q ~deadline_ns message;
         t.stats.singleflight_coalesced <- t.stats.singleflight_coalesced + 1;
         if t.m.gm_on then Obs.Counter.incr t.m.gm_coalesced;
         Parked
       end
     | None ->
       (match Lru.find ts.ts_formats ~hash:fp fp with
        | None -> shed t ~tenant:ts.ts_id No_meta
        | Some tf -> start_compile t ts ~fingerprint:fp tf ~deadline_ns message))

(* A push's meta and fingerprint, decoded once per distinct encoding;
   [true] when these bytes were decoded before.  Identical pushes hand
   every tenant the same meta value, which is immutable.  A decode error
   is never stored. *)
let decode_push t (encoded : string) : (pushed * bool, Err.t) result =
  let hash = Hashtbl.hash encoded in
  match Lru.find t.metas ~hash encoded with
  | Some p -> Ok (p, true)
  | None ->
    Result.map
      (fun meta ->
         let p = { pu_meta = meta; pu_fp = fingerprint meta } in
         ignore (Lru.add t.metas ~hash encoded p : int);
         (p, false))
      (Meta.decode encoded)

let handle_meta t ~tenant ~fingerprint:fp (encoded : string) : outcome =
  match decode_push t encoded with
  | Error e ->
    t.stats.bad_frames <- t.stats.bad_frames + 1;
    Ignored (Fmt.str "bad meta push: %s" (Err.to_string e))
  | Ok ({ pu_meta = meta; pu_fp = want }, shared) ->
    if fp <> 0 && fp <> want then begin
      t.stats.bad_frames <- t.stats.bad_frames + 1;
      Ignored (Fmt.str "meta push fingerprint %d does not match content %d" fp want)
    end
    else begin
      let ts =
        match Tenants.find_opt t.tenants tenant with
        | Some ts -> ts
        | None ->
          (* self-describing onboarding: the first push creates the
             tenant and pins its target.  Senders push their base (v0)
             before evolving, so deliveries morph back to it *)
          new_tenant t tenant meta.Meta.body
      in
      (match Lru.find ts.ts_formats ~hash:want want with
       | Some tf -> tf.tf_meta <- meta
       | None ->
         ignore
           (Lru.add ts.ts_formats ~hash:want want { tf_meta = meta; tf_compiled = false } : int));
      t.stats.meta_pushes <- t.stats.meta_pushes + 1;
      if t.m.gm_on then Obs.Counter.incr t.m.gm_meta_pushes;
      if shared then begin
        t.stats.meta_shared <- t.stats.meta_shared + 1;
        if t.m.gm_on then Obs.Counter.incr t.m.gm_meta_shared
      end;
      Onboarded
    end

let handle_described t ~tenant ~fingerprint:fp ~deadline_ns
    (frame : Framing.frame) : outcome =
  match frame with
  | Framing.Meta { meta; _ } -> handle_meta t ~tenant ~fingerprint:fp meta
  | Framing.Data { message; _ } ->
    (match Tenants.find t.tenants tenant with
     | exception Not_found -> shed t ~tenant Unknown_tenant
     | ts ->
       (* admission control, strictly before any decode work: deadline
          first (expired work helps nobody), then the circuit, then the
          tenant's rate quota.  A closed circuit admits whatever the
          time, so only an open or half-open one reads the clock *)
       if deadline_ns > 0 && now_ns t > float_of_int deadline_ns then
         shed t ~tenant Deadline
       else if
         match Breaker.state ts.ts_breaker with
         | Breaker.Closed -> false
         | Breaker.Open | Breaker.Half_open ->
           not (Breaker.admit ts.ts_breaker ~now:(now_s t))
       then shed t ~tenant Breaker
       else if
         match ts.ts_bucket with
         | Some b -> not (bucket_admit b ~now:(now_s t))
         | None -> false
       then shed t ~tenant Quota
       else begin
         t.stats.admitted <- t.stats.admitted + 1;
         if t.m.gm_on then begin
           Obs.Counter.incr t.m.gm_admitted;
           Obs.Counter.incr ts.ts_m_admitted
         end;
         handle_data t ts ~fingerprint:fp ~deadline_ns message
       end)
  | Framing.Meta_request _ | Framing.Ack _ | Framing.Reliable _
  | Framing.Traced _ | Framing.Described _ ->
    t.stats.bad_frames <- t.stats.bad_frames + 1;
    Ignored "described envelope around a frame the gateway does not terminate"

let handle_frame t (frame : Framing.frame) : outcome =
  match frame with
  | Framing.Described { tenant; fingerprint = fp; deadline_ns; frame } ->
    handle_described t ~tenant ~fingerprint:fp ~deadline_ns frame
  | Framing.Traced
      { trace_id; parent_span;
        frame = Framing.Described { tenant; fingerprint = fp; deadline_ns; frame } } ->
    if t.m.gm_on then
      Obs.Trace.with_span
        ~ctx:{ Obs.Trace.trace_id; span_id = parent_span }
        t.m.gm_reg "gateway.ingress"
        (fun () -> handle_described t ~tenant ~fingerprint:fp ~deadline_ns frame)
    else handle_described t ~tenant ~fingerprint:fp ~deadline_ns frame
  | _ ->
    t.stats.bad_frames <- t.stats.bad_frames + 1;
    Ignored "not a described frame"

(* Attach the gateway to the network.  Wire garbage never raises. *)
let attach t =
  Netsim.add_node t.net t.contact (fun ~src:_ payload ->
      match Framing.decode payload with
      | Ok frame -> ignore (handle_frame t frame : outcome)
      | Error _ -> t.stats.bad_frames <- t.stats.bad_frames + 1)

let pending_depth t = t.pending_depth
