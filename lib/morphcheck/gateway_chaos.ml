(* Chaos soak for the multi-tenant morphing gateway (docs/GATEWAY.md).

   Each case drives one gateway hard on purpose: a deliberately tiny plan
   cache, a tight admission rate, a mass schema-push storm and a 3x
   overload burst mid-run — first fault-free, then under the
   {!Chaos.profile} fault model (loss, duplication, reordering, jitter, a
   timed partition).  The gateway may shed as much as it needs to; what
   it may never do is crash, leak (pending work or cache entries past
   their bounds), deliver bytes that differ from the interpretive
   reference (parity stays on for every delivery), or diverge between
   two runs of the same seed.  A campaign in which no run shed a message
   or evicted a plan never reached the gateway's overload paths, and
   fails. *)

open Pbio
module Netsim = Transport.Netsim
module Contact = Transport.Contact
module Framing = Transport.Framing

type failure = { case : int; seed : int; reason : string }

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "case %d (seed %d): %s" f.case f.seed f.reason

type totals = {
  runs : int;
  delivered : int;
  shed_deadline : int;
  shed_quota : int;
  shed_breaker : int;
  shed_overload : int;
  shed_unknown : int;
  shed_no_meta : int;
  evictions : int;
  recompiles : int;
  trips : int;
}

type report = {
  cases : int;
  tenants_per_case : int;
  messages_per_case : int;
  totals : totals;
  failures : failure list;
}

let passed r = r.failures = []

let pp_totals ppf (t : totals) =
  Fmt.pf ppf
    "%d runs: delivered=%d shed deadline=%d quota=%d breaker=%d overload=%d \
     unknown=%d no_meta=%d evictions=%d recompiles=%d trips=%d"
    t.runs t.delivered t.shed_deadline t.shed_quota t.shed_breaker t.shed_overload
    t.shed_unknown t.shed_no_meta t.evictions t.recompiles t.trips

let pp_report ppf (r : report) =
  if passed r then
    Fmt.pf ppf "gateway chaos: %d cases x %d tenants x %d messages: all passed@\n%a"
      r.cases r.tenants_per_case r.messages_per_case pp_totals r.totals
  else
    Fmt.pf ppf "gateway chaos: %d of %d cases failed:@\n%a@\n%a"
      (List.length r.failures) r.cases
      (Fmt.list ~sep:Fmt.cut pp_failure)
      r.failures pp_totals r.totals

(* --- one case --------------------------------------------------------------- *)

let base_format =
  Ptype_dsl.format_of_string_exn
    "format GwEvent { int kind; string tag; int count; }"

let versions_per_lineage = 3
let lineage_count = 4

(* v0 .. v[versions-1] of one Evolve lineage, each with meta and one
   pre-encoded wire message (the [Population] recipe, self-contained so
   morphcheck stays below loadgen in the dependency order). *)
let build_lineage ~seed =
  let rng = Random.State.make [| 0x9a7e; seed |] in
  let hops = versions_per_lineage - 1 in
  let steps =
    let rec gen tries =
      let c = Evolve.chain ~max_steps:hops base_format rng in
      if List.length c.Evolve.steps = hops || tries = 0 then c else gen (tries - 1)
    in
    (gen 64).Evolve.steps
  in
  let take n l =
    let rec go n acc = function
      | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
      | _ -> List.rev acc
    in
    go n [] l
  in
  Array.init versions_per_lineage (fun i ->
      let prefix = { Evolve.base = base_format; steps = take i steps } in
      let format = Evolve.head prefix in
      let meta =
        if i = 0 then Meta.plain base_format else Evolve.meta_of_chain prefix
      in
      let value = Gen.value_for format (Random.State.make [| 0x9a7e; seed; i |]) in
      (meta, Wire.encode ~format_id:i format value))

(* A stressed-by-design gateway: 24 tenants sending in turn over 16 plan
   slots evict globally on almost every message, so the tenant quota of 2
   never binds; the 3x burst outruns the 200/s admission rate, so it
   sheds by quota. *)
let case_config : Gateway.config =
  {
    Gateway.max_plans = 16;
    tenant_quota = 2;
    admit_rate = 200.;
    admit_burst = 8.;
    parity = true;
  }

(* Everything a case's behaviour compresses to: two runs of the same seed
   must produce equal digests (the determinism gate), and several fields
   carry invariants of their own.  The gateway's counters are final once
   the network has quiesced. *)
type digest = {
  d_sent : int;
  d_stats : Gateway.stats;
  d_cache : Gateway.Plan_cache.stats;
  d_pending_end : int;
  d_quiesced : bool;
}

let digest_to_string (d : digest) =
  let s = d.d_stats and c = d.d_cache in
  Printf.sprintf
    "sent=%d admitted=%d delivered=%d shed=%d rejected=%d \
     compiles=%d recompiles=%d coalesced=%d trips=%d evictions=%d high_water=%d \
     cache_end=%d parity_mismatches=%d pending_end=%d quiesced=%b"
    d.d_sent s.Gateway.admitted s.Gateway.delivered (Gateway.shed_total s)
    s.Gateway.rejected s.Gateway.plan_compiles s.Gateway.plan_recompiles
    s.Gateway.singleflight_coalesced s.Gateway.breaker_trips
    c.Gateway.Plan_cache.evictions c.Gateway.Plan_cache.high_water
    c.Gateway.Plan_cache.entries s.Gateway.parity_mismatches d.d_pending_end
    d.d_quiesced

let no_totals =
  { runs = 0; delivered = 0; shed_deadline = 0; shed_quota = 0; shed_breaker = 0;
    shed_overload = 0; shed_unknown = 0; shed_no_meta = 0; evictions = 0;
    recompiles = 0; trips = 0 }

let add_run (t : totals) (d : digest) : totals =
  let s = d.d_stats in
  {
    runs = t.runs + 1;
    delivered = t.delivered + s.Gateway.delivered;
    shed_deadline = t.shed_deadline + s.Gateway.shed_deadline;
    shed_quota = t.shed_quota + s.Gateway.shed_quota;
    shed_breaker = t.shed_breaker + s.Gateway.shed_breaker;
    shed_overload = t.shed_overload + s.Gateway.shed_overload;
    shed_unknown = t.shed_unknown + s.Gateway.shed_unknown;
    shed_no_meta = t.shed_no_meta + s.Gateway.shed_no_meta;
    evictions = t.evictions + d.d_cache.Gateway.Plan_cache.evictions;
    recompiles = t.recompiles + s.Gateway.plan_recompiles;
    trips = t.trips + s.Gateway.breaker_trips;
  }

let duration_s = 0.2
let max_steps = 10_000_000

let run_once ~(seed : int) ~(faulty : bool) ~(profile : Chaos.profile)
    ~(tenants : int) ~(messages : int) : digest =
  let net = Netsim.create ~seed () in
  let gw_contact = Contact.make "gw" 1 in
  let gw = Gateway.create ~config:case_config ~net gw_contact (fun _ -> ()) in
  Gateway.attach gw;
  let lineages =
    Array.init lineage_count (fun k -> build_lineage ~seed:(seed + (31 * k)))
  in
  let version_of = Array.make tenants 0 in
  let contacts = Array.init tenants (fun i -> Contact.make "tenant" i) in
  let sent = ref 0 in
  let push_meta i =
    let meta, _ = lineages.(i mod lineage_count).(version_of.(i)) in
    Netsim.send net ~src:contacts.(i) ~dst:gw_contact
      (Framing.encode
         (Gateway.envelope ~tenant:i
            ~fingerprint:(Gateway.fingerprint meta)
            (Framing.Meta { format_id = version_of.(i); meta = Meta.encode meta })))
  in
  for i = 0 to tenants - 1 do
    push_meta i
  done;
  ignore (Netsim.run ~max_steps net);
  (* onboarding settles fault-free; the faults hit the load *)
  if faulty then begin
    Netsim.set_faults net
      { Netsim.loss = profile.Chaos.loss;
        duplication = profile.Chaos.duplication;
        reorder = profile.Chaos.reorder;
        jitter_s = profile.Chaos.jitter_s };
    if profile.Chaos.partition then
      Netsim.add_partition net ~group_a:[ contacts.(0) ] ~group_b:[ gw_contact ]
        ~start:(Netsim.now net +. 0.02)
        ~stop:(Netsim.now net +. 0.05)
  end;
  (* Arrival schedule, fixed up front: nominal gaps in the outer thirds,
     3x the rate in the middle third (the overload burst). *)
  let nominal_gap = duration_s /. float_of_int messages /. 1.5 in
  let at = ref 0. in
  for k = 0 to messages - 1 do
    let in_burst =
      !at > duration_s /. 3. && !at < 2. *. duration_s /. 3.
    in
    at := !at +. (if in_burst then nominal_gap /. 3. else nominal_gap);
    let i = k mod tenants in
    Netsim.after net !at (fun () ->
        let meta, bytes = lineages.(i mod lineage_count).(version_of.(i)) in
        incr sent;
        Netsim.send net ~src:contacts.(i) ~dst:gw_contact
          (Framing.encode
             (Gateway.envelope ~tenant:i
                ~fingerprint:(Gateway.fingerprint meta)
                ~deadline_ns:
                  (int_of_float ((Netsim.now net +. 0.005) *. 1e9))
                (Framing.Data { format_id = version_of.(i); message = bytes }))))
  done;
  (* the schema-push storm: every tenant advances one version and
     re-pushes at once.  The arrival schedule runs out at 4/9 of
     [duration_s], so the storm lands after the last data message *)
  Netsim.after net (duration_s /. 2.) (fun () ->
      for i = 0 to tenants - 1 do
        version_of.(i) <- (version_of.(i) + 1) mod versions_per_lineage;
        push_meta i
      done);
  let res = Netsim.run ~max_steps net in
  {
    d_sent = !sent;
    d_stats = Gateway.stats gw;
    d_cache = Gateway.cache_stats gw;
    d_pending_end = Gateway.pending_depth gw;
    d_quiesced = res.Netsim.quiesced;
  }

(* The share of sent messages a run may shed: the cases are built to
   overload. *)
let shed_budget = 0.6

let check_invariants ~case ~seed ~(faulty : bool) (d : digest) : failure list =
  let fail fmt = Fmt.kstr (fun reason -> [ { case; seed; reason } ]) fmt in
  let s = d.d_stats and c = d.d_cache in
  let shed = Gateway.shed_total s and max_plans = case_config.Gateway.max_plans in
  List.concat
    [
      (if d.d_quiesced then [] else fail "network did not quiesce");
      (if d.d_pending_end = 0 then []
       else fail "%d messages still parked after quiesce" d.d_pending_end);
      (if c.Gateway.Plan_cache.high_water <= max_plans then []
       else
         fail "plan cache high water %d exceeds the %d bound"
           c.Gateway.Plan_cache.high_water max_plans);
      (if c.Gateway.Plan_cache.entries <= max_plans then []
       else fail "plan cache ended over bound (%d)" c.Gateway.Plan_cache.entries);
      (if s.Gateway.parity_mismatches = 0 then []
       else
         fail "%d deliveries diverged from the interpretive reference"
           s.Gateway.parity_mismatches);
      (if s.Gateway.delivered + s.Gateway.rejected <= s.Gateway.admitted then []
       else fail "delivery accounting leak");
      (let budget =
         int_of_float (shed_budget *. float_of_int (Int.max 1 d.d_sent))
       in
       if shed <= budget then []
       else fail "shed %d of %d sent exceeds the %.0f%% budget" shed d.d_sent
           (100. *. shed_budget));
      (if faulty || s.Gateway.delivered > 0 then []
       else fail "fault-free case delivered nothing");
    ]

(* A case's three runs, and what failed in them. *)
let run_case ~(profile : Chaos.profile) ~case ~seed ~tenants ~messages :
  digest list * failure list =
  match
    let base = run_once ~seed ~faulty:false ~profile ~tenants ~messages in
    let faulted = run_once ~seed ~faulty:true ~profile ~tenants ~messages in
    let replay = run_once ~seed ~faulty:true ~profile ~tenants ~messages in
    (base, faulted, replay)
  with
  | base, faulted, replay ->
    ( [ base; faulted; replay ],
      List.concat
        [
          check_invariants ~case ~seed ~faulty:false base;
          check_invariants ~case ~seed ~faulty:true faulted;
          (if faulted = replay then []
           else
             [ { case; seed;
                 reason =
                   Fmt.str
                     "same seed, different outcome: %s vs replay %s"
                     (digest_to_string faulted) (digest_to_string replay) } ]);
        ] )
  | exception e ->
    ( [],
      [ { case; seed;
          reason = Fmt.str "escaped exception: %s" (Printexc.to_string e) } ] )

let run ?(profile = Chaos.default_profile) ~seed ~cases ?(tenants = 24)
    ?(messages = 600) () : report =
  let totals = ref no_totals and failures = ref [] in
  for case = 1 to cases do
    let sub_seed = seed + (case * 7919) in
    let runs, f = run_case ~profile ~case ~seed:sub_seed ~tenants ~messages in
    totals := List.fold_left add_run !totals runs;
    failures := !failures @ f
  done;
  let t = !totals in
  (* a campaign that never shed or evicted never reached the overload
     paths it exists to check *)
  let unexercised what = { case = 0; seed; reason = "no run " ^ what } in
  let coverage =
    if cases = 0 then []
    else
      (if t.shed_deadline + t.shed_quota + t.shed_breaker + t.shed_overload
          + t.shed_unknown + t.shed_no_meta = 0
       then [ unexercised "shed a message" ]
       else [])
      @ if t.evictions = 0 then [ unexercised "evicted a plan" ] else []
  in
  {
    cases;
    tenants_per_case = tenants;
    messages_per_case = messages;
    totals = t;
    failures = !failures @ coverage;
  }

(* --- the observed case ------------------------------------------------------

   One extra stressed case run with full telemetry armed: a metrics
   registry on the virtual clock, an {!Obs.Flight} recorder on the
   gateway, periodic scrapes, and one *poison* tenant beyond the regular
   population whose data frames carry garbage bytes under a valid
   fingerprint.  Every poison frame passes admission and then fails
   decode, so its breaker accumulates consecutive failures and is
   guaranteed to trip — which means the run always yields breaker trips,
   per-tenant shed/admit series and at least one flight incident.  The
   CLI soak (`morphctl gateway --soak`) exports these as its prometheus,
   scrape-ndjson and incident-dump artifacts. *)

type observed = {
  o_metrics : Obs.t;
  o_flight : Obs.Flight.recorder;
  o_scrape : string;  (* ndjson, one {"scrape":N,...} object per line *)
  o_sent : int;
  o_delivered : int;
  o_trips : int;
  o_incidents : int;
  o_quiesced : bool;
}

let scrape_append buf ~n ~t reg =
  let series =
    Obs.to_json_lines reg |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> String.concat ","
  in
  Buffer.add_string buf
    (Printf.sprintf {|{"scrape":%d,"t":%.6f,"series":[%s]}|} n t series);
  Buffer.add_char buf '\n'

let poison_frames = 12

let run_observed ?(profile = Chaos.default_profile) ~seed ?(tenants = 24)
    ?(messages = 600) ?(scrape_every_s = 0.02) () : observed =
  let reg = Obs.create ~label:"gateway-soak" () in
  let net = Netsim.create ~seed ~metrics:reg () in
  Obs.set_registry_clock reg (fun () -> Netsim.now net *. 1e9);
  let flight = Obs.Flight.create reg in
  let gw_contact = Contact.make "gw" 1 in
  let gw =
    Gateway.create ~config:case_config ~metrics:reg ~flight ~net gw_contact
      (fun _ -> ())
  in
  Gateway.attach gw;
  let lineages =
    Array.init lineage_count (fun k -> build_lineage ~seed:(seed + (31 * k)))
  in
  let version_of = Array.make tenants 0 in
  let poison = tenants in
  let contacts = Array.init (tenants + 1) (fun i -> Contact.make "tenant" i) in
  let sent = ref 0 in
  let push_meta i =
    let meta, _ = lineages.(i mod lineage_count).(version_of.(i)) in
    Netsim.send net ~src:contacts.(i) ~dst:gw_contact
      (Framing.encode
         (Gateway.envelope ~tenant:i
            ~fingerprint:(Gateway.fingerprint meta)
            (Framing.Meta { format_id = version_of.(i); meta = Meta.encode meta })))
  in
  for i = 0 to tenants - 1 do
    push_meta i
  done;
  (* the poison tenant onboards with a perfectly normal v0 meta push *)
  let poison_meta, _ = lineages.(0).(0) in
  let poison_fp = Gateway.fingerprint poison_meta in
  Netsim.send net ~src:contacts.(poison) ~dst:gw_contact
    (Framing.encode
       (Gateway.envelope ~tenant:poison ~fingerprint:poison_fp
          (Framing.Meta { format_id = 0; meta = Meta.encode poison_meta })));
  ignore (Netsim.run ~max_steps net);
  Netsim.set_faults net
    { Netsim.loss = profile.Chaos.loss;
      duplication = profile.Chaos.duplication;
      reorder = profile.Chaos.reorder;
      jitter_s = profile.Chaos.jitter_s };
  let nominal_gap = duration_s /. float_of_int messages /. 1.5 in
  let at = ref 0. in
  for k = 0 to messages - 1 do
    let in_burst = !at > duration_s /. 3. && !at < 2. *. duration_s /. 3. in
    at := !at +. (if in_burst then nominal_gap /. 3. else nominal_gap);
    let i = k mod tenants in
    Netsim.after net !at (fun () ->
        let meta, bytes = lineages.(i mod lineage_count).(version_of.(i)) in
        incr sent;
        Netsim.send net ~src:contacts.(i) ~dst:gw_contact
          (Framing.encode
             (Gateway.envelope ~tenant:i
                ~fingerprint:(Gateway.fingerprint meta)
                ~deadline_ns:(int_of_float ((Netsim.now net +. 0.005) *. 1e9))
                (Framing.Data { format_id = version_of.(i); message = bytes }))))
  done;
  (* poison frames: valid fingerprint, garbage payload — admitted, then a
     guaranteed decode failure feeding this tenant's breaker *)
  for k = 0 to poison_frames - 1 do
    Netsim.after net
      ((duration_s /. 4.) +. (float_of_int k *. 0.004))
      (fun () ->
        incr sent;
        Netsim.send net ~src:contacts.(poison) ~dst:gw_contact
          (Framing.encode
             (Gateway.envelope ~tenant:poison ~fingerprint:poison_fp
                (Framing.Data { format_id = 0; message = "\xff\xff\xff\xff" }))))
  done;
  Netsim.after net (duration_s /. 2.) (fun () ->
      for i = 0 to tenants - 1 do
        version_of.(i) <- (version_of.(i) + 1) mod versions_per_lineage;
        push_meta i
      done);
  let scrapes = Buffer.create 512 in
  let scrape_n = ref 0 in
  let scrape () =
    incr scrape_n;
    scrape_append scrapes ~n:!scrape_n ~t:(Netsim.now net) reg
  in
  let rec scrape_tick () =
    if Netsim.now net < duration_s then begin
      scrape ();
      Netsim.after net scrape_every_s scrape_tick
    end
  in
  if scrape_every_s > 0. then Netsim.after net scrape_every_s scrape_tick;
  let res = Netsim.run ~max_steps net in
  scrape ();
  let s = Gateway.stats gw in
  {
    o_metrics = reg;
    o_flight = flight;
    o_scrape = Buffer.contents scrapes;
    o_sent = !sent;
    o_delivered = s.Gateway.delivered;
    o_trips = s.Gateway.breaker_trips;
    o_incidents = Obs.Flight.count flight;
    o_quiesced = res.Netsim.quiesced;
  }
