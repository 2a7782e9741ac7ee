(* Chaos soak for the multi-tenant morphing gateway (docs/GATEWAY.md).

   Each case drives one gateway hard on purpose: a deliberately tiny plan
   cache, tight tenant quotas and admission rates, a mass schema-push
   storm and a 3x overload burst mid-run — first fault-free, then under
   the {!Chaos.profile} fault model (loss, duplication, reordering,
   jitter, a timed partition).  The gateway may shed as much as it needs
   to; what it may never do is
   crash, leak (pending work or cache entries past their bounds), deliver
   bytes that differ from the interpretive reference (parity stays on for
   every delivery), or diverge between two runs of the same seed. *)

open Pbio
module Netsim = Transport.Netsim
module Contact = Transport.Contact
module Framing = Transport.Framing

type failure = { case : int; seed : int; reason : string }

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "case %d (seed %d): %s" f.case f.seed f.reason

type report = {
  cases : int;
  tenants_per_case : int;
  messages_per_case : int;
  failures : failure list;
}

let passed r = r.failures = []

let pp_report ppf (r : report) =
  if passed r then
    Fmt.pf ppf "gateway chaos: %d cases x %d tenants x %d messages: all passed"
      r.cases r.tenants_per_case r.messages_per_case
  else
    Fmt.pf ppf "gateway chaos: %d of %d cases failed:@,%a"
      (List.length r.failures) r.cases
      (Fmt.list ~sep:Fmt.cut pp_failure)
      r.failures

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

(* A stressed-by-design gateway: the bounds are small enough that a storm
   plus a burst must evict and shed. *)
let case_config : Gateway.config =
  {
    Gateway.default_config with
    Gateway.max_plans = 16;
    tenant_quota = 2;
    admit_rate = 3_000.;
    admit_burst = 8.;
    breaker_cooldown_s = Some 0.01;
    governor =
      { Gateway.Governor.window_s = 0.01; shed_evictions = 24 };
    compile_s_per_unit = 5e-5;
    pending_cap = 64;
    parity = true;
  }

(* Everything a case's behaviour compresses to: two runs of the same seed
   must produce equal digests (the determinism gate), and several fields
   carry invariants of their own. *)
type digest = {
  d_sent : int;
  d_admitted : int;
  d_delivered : int;
  d_shed : int;
  d_rejected : int;
  d_compiles : int;
  d_recompiles : int;
  d_coalesced : int;
  d_trips : int;
  d_high_water : int;
  d_cache_end : int;
  d_parity_mismatches : int;
  d_pending_end : int;
  d_quiesced : bool;
}

let digest_to_string (d : digest) =
  Printf.sprintf
    "sent=%d admitted=%d delivered=%d shed=%d rejected=%d \
     compiles=%d recompiles=%d coalesced=%d trips=%d high_water=%d \
     cache_end=%d parity_mismatches=%d pending_end=%d quiesced=%b"
    d.d_sent d.d_admitted d.d_delivered d.d_shed d.d_rejected
    d.d_compiles d.d_recompiles d.d_coalesced d.d_trips d.d_high_water
    d.d_cache_end d.d_parity_mismatches d.d_pending_end d.d_quiesced

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
  (* the schema-push storm lands mid-burst: every tenant advances one
     version and re-pushes at once *)
  Netsim.after net (duration_s /. 2.) (fun () ->
      for i = 0 to tenants - 1 do
        version_of.(i) <- (version_of.(i) + 1) mod versions_per_lineage;
        push_meta i
      done);
  let res = Netsim.run ~max_steps net in
  let s = Gateway.stats gw in
  let c = Gateway.cache_stats gw in
  {
    d_sent = !sent;
    d_admitted = s.Gateway.admitted;
    d_delivered = s.Gateway.delivered;
    d_shed = Gateway.shed_total s;
    d_rejected = s.Gateway.rejected;
    d_compiles = s.Gateway.plan_compiles;
    d_recompiles = s.Gateway.plan_recompiles;
    d_coalesced = s.Gateway.singleflight_coalesced;
    d_trips = s.Gateway.breaker_trips;
    d_high_water = c.Gateway.Plan_cache.high_water;
    d_cache_end = c.Gateway.Plan_cache.entries;
    d_parity_mismatches = s.Gateway.parity_mismatches;
    d_pending_end = Gateway.pending_depth gw;
    d_quiesced = res.Netsim.quiesced;
  }

let check_invariants ~case ~seed ~shed_budget ~(faulty : bool) (d : digest) :
  failure list =
  let fail fmt = Fmt.kstr (fun reason -> [ { case; seed; reason } ]) fmt in
  List.concat
    [
      (if d.d_quiesced then [] else fail "network did not quiesce");
      (if d.d_pending_end = 0 then []
       else fail "%d messages still parked after quiesce" d.d_pending_end);
      (if d.d_high_water <= case_config.Gateway.max_plans then []
       else
         fail "plan cache high water %d exceeds the %d bound" d.d_high_water
           case_config.Gateway.max_plans);
      (if d.d_cache_end <= case_config.Gateway.max_plans then []
       else fail "plan cache ended over bound (%d)" d.d_cache_end);
      (if d.d_parity_mismatches = 0 then []
       else
         fail "%d deliveries diverged from the interpretive reference"
           d.d_parity_mismatches);
      (if d.d_delivered + d.d_rejected + d.d_shed <= d.d_admitted + d.d_shed
       then []
       else fail "delivery accounting leak");
      (let budget =
         int_of_float (shed_budget *. float_of_int (Int.max 1 d.d_sent))
       in
       if d.d_shed <= budget then []
       else fail "shed %d of %d sent exceeds the %.0f%% budget" d.d_shed d.d_sent
           (100. *. shed_budget));
      (if faulty || d.d_delivered > 0 then []
       else fail "fault-free case delivered nothing");
    ]

let run_case ~(profile : Chaos.profile) ~shed_budget ~case ~seed ~tenants
    ~messages : failure list =
  match
    let base = run_once ~seed ~faulty:false ~profile ~tenants ~messages in
    let faulted = run_once ~seed ~faulty:true ~profile ~tenants ~messages in
    let replay = run_once ~seed ~faulty:true ~profile ~tenants ~messages in
    (base, faulted, replay)
  with
  | base, faulted, replay ->
    List.concat
      [
        check_invariants ~case ~seed ~shed_budget ~faulty:false base;
        check_invariants ~case ~seed ~shed_budget ~faulty:true faulted;
        (if faulted = replay then []
         else
           [ { case; seed;
               reason =
                 Fmt.str
                   "same seed, different outcome: %s vs replay %s"
                   (digest_to_string faulted) (digest_to_string replay) } ]);
      ]
  | exception e ->
    [ { case; seed;
        reason = Fmt.str "escaped exception: %s" (Printexc.to_string e) } ]

let run ?(profile = Chaos.default_profile) ?(shed_budget = 0.6) ~seed ~cases
    ?(tenants = 24) ?(messages = 600) () : report =
  let failures = ref [] in
  for case = 1 to cases do
    let sub_seed = seed + (case * 7919) in
    failures :=
      !failures
      @ run_case ~profile ~shed_budget ~case ~seed:sub_seed ~tenants ~messages
  done;
  {
    cases;
    tenants_per_case = tenants;
    messages_per_case = messages;
    failures = !failures;
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
