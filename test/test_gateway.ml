(* The multi-tenant morphing gateway: circuit breaker, shared plan cache,
   config validation, Described-envelope admission, singleflight
   compile coalescing and its drain, one plan per shape at its engine,
   targets pinned by a tenant's first meta push, and the 1k-tenant
   overload acceptance run (docs/GATEWAY.md). *)

open Pbio
module G = Gateway
module PC = Gateway.Plan_cache
module Breaker = Morph.Breaker
module Netsim = Transport.Netsim
module Contact = Transport.Contact
module Framing = Transport.Framing
module L = Loadgen
module D = Loadgen.Dist
module P = Loadgen.Population

let state_t : Breaker.state Alcotest.testable =
  Alcotest.testable Breaker.pp_state ( = )

let rung_t : G.rung Alcotest.testable =
  Alcotest.testable
    (fun ppf r -> Fmt.string ppf (match r with G.Fused -> "fused" | G.Staged -> "staged"))
    ( = )

(* --- circuit breaker --------------------------------------------------------- *)

let test_breaker_trip_and_recover () =
  let b = Breaker.create ~cooldown_s:0.1 () in
  Alcotest.check state_t "starts closed" Breaker.Closed (Breaker.state b);
  Alcotest.(check bool) "admits when closed" true (Breaker.admit b ~now:0.);
  Alcotest.(check bool) "1st failure" false (Breaker.record_failure b ~now:0.);
  Alcotest.(check bool) "2nd failure" false (Breaker.record_failure b ~now:0.);
  Alcotest.(check bool) "3rd failure trips" true (Breaker.record_failure b ~now:0.);
  Alcotest.check state_t "open after trip" Breaker.Open (Breaker.state b);
  Alcotest.(check bool) "open blocks" false (Breaker.admit b ~now:0.05);
  Alcotest.(check bool) "cooldown elapses -> probe admitted" true
    (Breaker.admit b ~now:0.11);
  Alcotest.check state_t "half-open during probe" Breaker.Half_open
    (Breaker.state b);
  Alcotest.(check bool) "probe success closes" true (Breaker.record_success b);
  Alcotest.check state_t "closed again" Breaker.Closed (Breaker.state b);
  Alcotest.(check bool) "success when closed returns false" false
    (Breaker.record_success b);
  Alcotest.(check int) "one trip recorded" 1 (Breaker.trips b)

let test_breaker_half_open_failure_retrips () =
  let b = Breaker.create ~cooldown_s:0.1 () in
  for _ = 1 to 3 do
    ignore (Breaker.record_failure b ~now:0. : bool)
  done;
  Alcotest.(check bool) "probe at 0.15" true (Breaker.admit b ~now:0.15);
  Alcotest.(check bool) "probe failure re-trips" true
    (Breaker.record_failure b ~now:0.15);
  Alcotest.check state_t "open again" Breaker.Open (Breaker.state b);
  (* the cooldown restarts from the re-trip *)
  Alcotest.(check bool) "still open at 0.2" false (Breaker.admit b ~now:0.2);
  Alcotest.(check bool) "probes again at 0.26" true (Breaker.admit b ~now:0.26);
  Alcotest.(check int) "two trips" 2 (Breaker.trips b)

let test_breaker_no_cooldown_stays_open () =
  let b = Breaker.create () in
  ignore (Breaker.record_failure b ~now:0. : bool);
  ignore (Breaker.record_failure b ~now:0. : bool);
  Alcotest.(check bool) "trips" true (Breaker.record_failure b ~now:0.);
  Alcotest.(check bool) "never half-opens" false (Breaker.admit b ~now:1e9);
  Alcotest.check state_t "still open" Breaker.Open (Breaker.state b)

(* --- shared plan cache -------------------------------------------------------- *)

let test_plan_cache_lru_and_stats () =
  let evicted = ref [] in
  let c =
    PC.create ~max_entries:3
      ~on_evict:(fun ~tenant ~key -> evicted := (tenant, key) :: !evicted)
      ()
  in
  PC.add c ~tenant:1 ~key:10 "a";
  PC.add c ~tenant:1 ~key:11 "b";
  PC.add c ~tenant:2 ~key:12 "c";
  (* touch 10 so 11 becomes the LRU *)
  Alcotest.(check (option string)) "hit" (Some "a") (PC.find c ~tenant:1 ~key:10);
  PC.add c ~tenant:2 ~key:13 "d";
  Alcotest.(check (list (pair int int))) "11 evicted" [ (1, 11) ] !evicted;
  Alcotest.(check (option string)) "evictee gone" None (PC.find c ~tenant:1 ~key:11);
  let s = PC.stats c in
  Alcotest.(check int) "entries" 3 s.PC.entries;
  Alcotest.(check int) "high water" 3 s.PC.high_water;
  Alcotest.(check int) "evictions" 1 s.PC.evictions;
  Alcotest.(check int) "hits" 1 s.PC.hits;
  Alcotest.(check int) "misses" 1 s.PC.misses;
  (* 70-130 hits between evictions, more than the recency record holds
     before it compacts (4 x entries + 64 = 76), so it wraps and compacts
     between evictions; each eviction still takes the least recently used
     entry *)
  let evicted = ref [] in
  let c = PC.create ~max_entries:3 ~on_evict:(fun ~tenant:_ ~key -> evicted := key :: !evicted) () in
  let order = ref [] (* least recently used first *) in
  let use k = order := List.filter (fun k' -> k' <> k) !order @ [ k ] in
  for key = 0 to 2 do
    PC.add c ~tenant:1 ~key (string_of_int key);
    use key
  done;
  let rng = Random.State.make [| 5 |] in
  let hits = ref 0 in
  for key = 3 to 40 do
    for _ = 1 to 70 + Random.State.int rng 61 do
      let k = List.nth !order (Random.State.int rng 3) in
      Alcotest.(check (option string)) "hit" (Some (string_of_int k)) (PC.find c ~tenant:1 ~key:k);
      incr hits;
      use k
    done;
    let lru = List.hd !order in
    PC.add c ~tenant:1 ~key (string_of_int key);
    Alcotest.(check (list int)) (Printf.sprintf "adding %d evicts %d" key lru) [ lru ]
      [ List.hd !evicted ];
    order := List.tl !order;
    use key
  done;
  let s = PC.stats c in
  Alcotest.(check (pair int int)) "hits, evictions" (!hits, 38) (s.PC.hits, s.PC.evictions)

(* A hit allocates nothing: the table hashes and compares its (tenant,
   key) pairs as ints, with no key tuple or option to build, and the
   recency record is a ring of two arrays, not a queue of pairs. *)
let test_plan_cache_hit_alloc () =
  let c = PC.create ~max_entries:4 () in
  PC.add c ~tenant:1 ~key:1 "a";
  PC.add c ~tenant:2 ~key:1 "b";
  let hit () =
    ignore (Sys.opaque_identity (PC.find c ~tenant:1 ~key:1));
    ignore (Sys.opaque_identity (PC.find c ~tenant:2 ~key:1))
  in
  (* the ring reaches its size before the count *)
  for _ = 1 to 500 do hit () done;
  let words = Helpers.alloc_per_call ~reps:1000 hit /. 2. /. float_of_int (Sys.word_size / 8) in
  (* the few words the counter reads themselves allocate, spread over
     2,000 hits *)
  Alcotest.(check bool) (Printf.sprintf "%.2f words per hit < 0.5" words) true (words < 0.5)

let test_plan_cache_tenant_quota () =
  let c = PC.create ~max_entries:100 ~tenant_quota:2 () in
  PC.add c ~tenant:7 ~key:1 "a";
  PC.add c ~tenant:8 ~key:2 "n";
  PC.add c ~tenant:7 ~key:3 "b";
  PC.add c ~tenant:7 ~key:4 "c";
  (* tenant 7 paid with its own LRU entry; tenant 8 is untouched *)
  Alcotest.(check int) "tenant 7 at quota" 2 (PC.tenant_count c 7);
  Alcotest.(check (option string)) "7's oldest gone" None (PC.find c ~tenant:7 ~key:1);
  Alcotest.(check (option string)) "neighbour intact" (Some "n")
    (PC.find c ~tenant:8 ~key:2);
  let s = PC.stats c in
  Alcotest.(check int) "quota eviction counted" 1 s.PC.quota_evictions;
  Alcotest.(check int) "also a plain eviction" 1 s.PC.evictions

let test_plan_cache_replace () =
  let evictions = ref 0 in
  let c = PC.create ~max_entries:10 ~on_evict:(fun ~tenant:_ ~key:_ -> incr evictions) () in
  PC.add c ~tenant:1 ~key:1 "a";
  PC.add c ~tenant:1 ~key:1 "a2";
  Alcotest.(check int) "replace is not an eviction" 0 !evictions;
  Alcotest.(check (option string)) "replaced" (Some "a2") (PC.find c ~tenant:1 ~key:1);
  Alcotest.(check int) "one entry" 1 (PC.size c)

(* --- the Described envelope ------------------------------------------------------ *)

let test_described_roundtrip () =
  let data = Framing.Data { format_id = 3; message = "payload" } in
  let roundtrip f =
    match Framing.decode (Framing.encode f) with
    | Ok f' -> Alcotest.(check bool) "roundtrip" true (f = f')
    | Error e -> Alcotest.failf "did not decode: %s" (Err.to_string e)
  in
  roundtrip
    (Framing.Described { tenant = 42; fingerprint = 0x1234_5678_9abc; deadline_ns = 77; frame = data });
  roundtrip
    (Framing.Described { tenant = 0; fingerprint = 0; deadline_ns = 0;
                         frame = Framing.Meta { format_id = 1; meta = "m" } });
  (* tracing and reliability compose around the envelope *)
  roundtrip
    (Framing.Traced
       { trace_id = 9; parent_span = 8;
         frame = Framing.Described
             { tenant = 1; fingerprint = 2; deadline_ns = 3; frame = data } });
  roundtrip
    (Framing.Reliable
       { seq = 5;
         frame = Framing.Described
             { tenant = 1; fingerprint = 2; deadline_ns = 3; frame = data } })

let test_described_hostile () =
  let data = Framing.Data { format_id = 1; message = "x" } in
  let raises f =
    match Framing.encode f with
    | exception Framing.Frame_error _ -> ()
    | _ -> Alcotest.fail "hostile frame encoded"
  in
  raises (Framing.Described { tenant = -1; fingerprint = 0; deadline_ns = 0; frame = data });
  raises (Framing.Described { tenant = 0; fingerprint = -1; deadline_ns = 0; frame = data });
  raises (Framing.Described { tenant = 0; fingerprint = 0; deadline_ns = -1; frame = data });
  raises
    (Framing.Described
       { tenant = 0; fingerprint = 0; deadline_ns = 0;
         frame = Framing.Described { tenant = 1; fingerprint = 0; deadline_ns = 0; frame = data } });
  raises
    (Framing.Described
       { tenant = 0; fingerprint = 0; deadline_ns = 0; frame = Framing.Ack { seq = 1 } });
  (* truncated described bodies decode to errors, never exceptions *)
  let good =
    Framing.encode
      (Framing.Described { tenant = 7; fingerprint = 9; deadline_ns = 5; frame = data })
  in
  for len = 0 to String.length good - 1 do
    match Framing.decode (String.sub good 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d decoded" len
  done

(* --- gateway end-to-end ----------------------------------------------------------- *)

(* A two-lineage population: [pv k v] is version [v] of lineage [k]. *)
let mk_net ?(seed = 42) () = Netsim.create ~seed ()

let pop_of_seed seed = P.make ~versions:3 ~seed ()

let data_frame ?(deadline_ns = 0) ~tenant (v : P.version) =
  G.envelope ~tenant ~fingerprint:(G.fingerprint v.P.meta) ~deadline_ns
    (Framing.Data { format_id = v.P.index; message = v.P.bytes })

let meta_frame ~tenant (v : P.version) =
  G.envelope ~tenant ~fingerprint:(G.fingerprint v.P.meta)
    (Framing.Meta { format_id = v.P.index; meta = Meta.encode v.P.meta })

(* Reference outcome for a v0 message: identity morph, so just the
   interpretive decode re-encoded canonically.  Evolved versions have no
   independent byte oracle here — the gateway may pick any qualifying
   morph path — so those rely on the gateway's own parity cross-check
   plus cross-rung equality below. *)
let v0_reference_bytes (pop : P.t) : string =
  let v = (P.versions pop).(0) in
  let value =
    match Wire.decode v.P.format v.P.bytes with
    | Ok x -> x
    | Error e -> Alcotest.failf "reference decode: %s" (Err.to_string e)
  in
  Codec.Interp.encode_payload ~endian:Codec.Little (P.base pop) value

let delivered_bytes (pop : P.t) (d : G.delivery) : string =
  Codec.Interp.encode_payload ~endian:Codec.Little (P.base pop) d.G.value

let test_gateway_onboard_and_deliver () =
  let net = mk_net () in
  let pop = pop_of_seed 42 in
  let pvs = P.versions pop in
  let deliveries = ref [] in
  let gwc = Contact.make "gw" 1 in
  let config = { G.default_config with G.parity = true } in
  let gw = G.create ~config ~net gwc (fun d -> deliveries := d :: !deliveries) in
  G.attach gw;
  let tenant_c = Contact.make "tenant" 3 in
  let send frame = Netsim.send net ~src:tenant_c ~dst:gwc (Framing.encode frame) in
  (* self-describing onboarding: the first push creates tenant 3 and pins
     the lineage base as its target *)
  send (meta_frame ~tenant:3 pvs.(0));
  send (meta_frame ~tenant:3 pvs.(2));
  ignore (Netsim.run net);
  Alcotest.(check int) "tenant onboarded" 1 (G.stats gw).G.onboarded;
  send (data_frame ~tenant:3 pvs.(0));
  send (data_frame ~tenant:3 pvs.(2));
  ignore (Netsim.run net);
  let s = G.stats gw in
  Alcotest.(check int) "both delivered" 2 s.G.delivered;
  Alcotest.(check int) "two plans compiled" 2 s.G.plan_compiles;
  Alcotest.(check int) "nothing shed" 0 (G.shed_total s);
  Alcotest.(check bool) "the v0 identity plan fuses" true (s.G.delivered_fused >= 1);
  (* every delivery survived the built-in interpretive cross-check *)
  Alcotest.(check int) "parity clean" 0 s.G.parity_mismatches;
  let v0_fp = G.fingerprint pvs.(0).P.meta in
  List.iter
    (fun (d : G.delivery) ->
       if d.G.fingerprint = v0_fp then
         Alcotest.(check string) "v0 delivery matches the reference"
           (v0_reference_bytes pop) (delivered_bytes pop d))
    !deliveries;
  (* cached plans: no further compiles *)
  send (data_frame ~tenant:3 pvs.(2));
  ignore (Netsim.run net);
  Alcotest.(check int) "cache hit, no recompile" 2 (G.stats gw).G.plan_compiles

let test_gateway_sheds_expired_before_decode () =
  let net = mk_net () in
  let pop = pop_of_seed 42 in
  let pvs = P.versions pop in
  let gw = G.create ~net (Contact.make "gw" 1) (fun _ -> ()) in
  ignore (G.handle_frame gw (meta_frame ~tenant:1 pvs.(0)) : G.outcome);
  (* advance the virtual clock so a tiny absolute deadline is in the past *)
  Netsim.after net 0.01 (fun () -> ());
  ignore (Netsim.run net);
  (* an undecodable body with an expired deadline must be shed, not
     rejected: the deadline gate runs before any decode work *)
  let garbage =
    G.envelope ~tenant:1 ~fingerprint:(G.fingerprint pvs.(0).P.meta)
      ~deadline_ns:1
      (Framing.Data { format_id = 0; message = "\xff\xff not a message" })
  in
  (match G.handle_frame gw garbage with
   | G.Shed G.Deadline -> ()
   | _ -> Alcotest.fail "expected a deadline shed");
  let s = G.stats gw in
  Alcotest.(check int) "shed_deadline" 1 s.G.shed_deadline;
  Alcotest.(check int) "not admitted" 0 s.G.admitted;
  Alcotest.(check int) "not rejected" 0 s.G.rejected;
  (* unknown tenants shed too, before any tenant state is created *)
  (match G.handle_frame gw (data_frame ~tenant:99 pvs.(0)) with
   | G.Shed G.Unknown_tenant -> ()
   | _ -> Alcotest.fail "expected an unknown-tenant shed")

let test_gateway_quota_shed () =
  let net = mk_net () in
  let pop = pop_of_seed 42 in
  let pvs = P.versions pop in
  let config = { G.default_config with G.admit_rate = 1.; admit_burst = 1. } in
  let gw = G.create ~config ~net (Contact.make "gw" 1) (fun _ -> ()) in
  ignore (G.handle_frame gw (meta_frame ~tenant:1 pvs.(0)) : G.outcome);
  (match G.handle_frame gw (data_frame ~tenant:1 pvs.(0)) with
   | G.Parked -> ()
   | _ -> Alcotest.fail "first message should park behind its compile");
  (match G.handle_frame gw (data_frame ~tenant:1 pvs.(0)) with
   | G.Shed G.Quota -> ()
   | _ -> Alcotest.fail "second message should exhaust the bucket");
  Alcotest.(check int) "shed_quota" 1 (G.stats gw).G.shed_quota;
  ignore (Netsim.run net);
  Alcotest.(check int) "the admitted one still delivers" 1 (G.stats gw).G.delivered

(* [create] refuses what [check_config] refuses, with its text: a rate
   below 0 or NaN is refused, not run as unlimited admission. *)
let test_gateway_create_refuses_bad_config () =
  let net = mk_net () in
  let refused what config want =
    Alcotest.(check (result unit string)) (what ^ ": check") (Error want)
      (G.check_config config);
    match G.create ~config ~net (Contact.make "gw" 1) (fun _ -> ()) with
    | _ -> Alcotest.failf "%s: created" what
    | exception Invalid_argument m ->
      Alcotest.(check string) (what ^ ": create") ("Gateway.create: " ^ want) m
  in
  let c = G.default_config in
  refused "negative rate" { c with G.admit_rate = -2. } "admit_rate must be >= 0 (got -2)";
  refused "NaN rate" { c with G.admit_rate = Float.nan } "admit_rate must be >= 0 (got nan)";
  refused "no plans" { c with G.max_plans = 0 } "max_plans must be >= 1 (got 0)";
  refused "no quota" { c with G.tenant_quota = 0 } "tenant_quota must be >= 1 (got 0)";
  refused "burst below 1"
    { c with G.admit_rate = 10.; admit_burst = 0.5 }
    "admit_burst must be >= 1 when admit_rate is set (got 0.5)";
  Alcotest.(check (result unit string)) "the default is valid" (Ok ()) (G.check_config c)

let test_gateway_breaker_trip_and_probe () =
  let net = mk_net () in
  let pop = pop_of_seed 42 in
  let pvs = P.versions pop in
  let gw = G.create ~net (Contact.make "gw" 1) (fun _ -> ()) in
  ignore (G.handle_frame gw (meta_frame ~tenant:1 pvs.(0)) : G.outcome);
  let good = data_frame ~tenant:1 pvs.(0) in
  let corrupt =
    (* a valid header with a truncated payload: decodes start, then fail *)
    G.envelope ~tenant:1 ~fingerprint:(G.fingerprint pvs.(0).P.meta)
      (Framing.Data
         { format_id = 0;
           message = String.sub pvs.(0).P.bytes 0 (Codec.header_size + 1) })
  in
  ignore (G.handle_frame gw good : G.outcome);
  ignore (Netsim.run net);
  Alcotest.(check int) "plan warm" 1 (G.stats gw).G.delivered;
  for _ = 1 to 3 do
    ignore (G.handle_frame gw corrupt : G.outcome)
  done;
  let s = G.stats gw in
  Alcotest.(check int) "three rejections" 3 s.G.rejected;
  Alcotest.(check int) "circuit tripped" 1 s.G.breaker_trips;
  Alcotest.check (Alcotest.option state_t) "open" (Some Breaker.Open)
    (G.breaker_state gw 1);
  Alcotest.(check int) "one open breaker" 1 (G.breakers_open gw);
  (match G.handle_frame gw good with
   | G.Shed G.Breaker -> ()
   | _ -> Alcotest.fail "open circuit should shed");
  (* past the cooldown the circuit half-opens; a good probe closes it *)
  Netsim.after net 0.06 (fun () ->
      match G.handle_frame gw good with
      | G.Delivered _ -> ()
      | _ -> Alcotest.fail "half-open probe should deliver");
  ignore (Netsim.run net);
  Alcotest.check (Alcotest.option state_t) "closed again" (Some Breaker.Closed)
    (G.breaker_state gw 1);
  Alcotest.(check int) "recovery counted" 1 (G.stats gw).G.breaker_recoveries;
  Alcotest.(check int) "no open breakers" 0 (G.breakers_open gw)

let test_gateway_singleflight () =
  let net = mk_net () in
  let pop = pop_of_seed 42 in
  let pvs = P.versions pop in
  (* compiles take simulated time, and the virtual clock holds still
     between direct calls, so the whole burst lands while one is in flight *)
  let gw = G.create ~net (Contact.make "gw" 1) (fun _ -> ()) in
  ignore (G.handle_frame gw (meta_frame ~tenant:1 pvs.(2)) : G.outcome);
  for _ = 1 to 10 do
    ignore (G.handle_frame gw (data_frame ~tenant:1 pvs.(2)) : G.outcome)
  done;
  Alcotest.(check int) "ten parked" 10 (G.pending_depth gw);
  ignore (Netsim.run net);
  let s = G.stats gw in
  Alcotest.(check int) "one compile for the whole burst" 1 s.G.plan_compiles;
  Alcotest.(check int) "nine coalesced" 9 s.G.singleflight_coalesced;
  Alcotest.(check int) "all delivered at flush" 10 s.G.delivered;
  Alcotest.(check int) "queue drained" 0 (G.pending_depth gw)

let test_gateway_pending_cap_sheds () =
  let net = mk_net () in
  let pop = pop_of_seed 42 in
  let pvs = P.versions pop in
  let gw = G.create ~net (Contact.make "gw" 1) (fun _ -> ()) in
  ignore (G.handle_frame gw (meta_frame ~tenant:1 pvs.(2)) : G.outcome);
  (* the clock holds still between direct calls: all 257 arrive while the
     first one's compile is in flight, and one queue holds 256 *)
  for _ = 1 to 257 do
    ignore (G.handle_frame gw (data_frame ~tenant:1 pvs.(2)) : G.outcome)
  done;
  let s = G.stats gw in
  Alcotest.(check int) "parked up to the cap" 256 (G.pending_depth gw);
  Alcotest.(check int) "overflow shed" 1 s.G.shed_overload;
  ignore (Netsim.run net);
  Alcotest.(check int) "capped queue delivered" 256 (G.stats gw).G.delivered

(* The first meta push onboards a tenant and pins its target for good:
   formats pushed later are senders' versions to morph from, never a new
   target, so two tenants pushing the same versions in opposite orders
   receive in different layouts. *)
let test_gateway_first_push_pins_target () =
  let pop = pop_of_seed 42 in
  let pvs = P.versions pop in
  let v0 = pvs.(0).P.format and v2 = pvs.(2).P.format in
  let conforms target (d : G.delivery) = Value.conforms (Ptype.Record target) d.G.value in
  let net = mk_net () in
  let out = ref [] in
  let config = { G.default_config with G.parity = true } in
  let gw = G.create ~config ~net (Contact.make "gw" 1) (fun d -> out := d :: !out) in
  let push tenant v = ignore (G.handle_frame gw (meta_frame ~tenant v) : G.outcome) in
  push 1 pvs.(0);
  push 1 pvs.(2);
  push 2 pvs.(2);
  push 2 pvs.(0);
  Alcotest.(check int) "two tenants onboarded" 2 (G.stats gw).G.onboarded;
  ignore (G.handle_frame gw (data_frame ~tenant:1 pvs.(2)) : G.outcome);
  ignore (G.handle_frame gw (data_frame ~tenant:2 pvs.(2)) : G.outcome);
  ignore (Netsim.run net);
  let delivery tenant =
    match List.filter (fun (d : G.delivery) -> d.G.tenant = tenant) !out with
    | [ d ] -> d
    | ds -> Alcotest.failf "tenant %d: expected one delivery, got %d" tenant (List.length ds)
  in
  Alcotest.(check bool) "tenant 1 morphs v2 back to its v0 target" true
    (conforms v0 (delivery 1));
  Alcotest.(check bool) "not into the later push" false (conforms v2 (delivery 1));
  Alcotest.(check bool) "tenant 2 keeps its v2 target" true (conforms v2 (delivery 2));
  Alcotest.(check int) "parity clean" 0 (G.stats gw).G.parity_mismatches

(* A compile's completion drains its parked queue and re-checks each
   message's deadline: work that expired while it waited is shed then,
   the rest delivers, and the pending-depth gauge returns to zero. *)
let test_gateway_deadline_rechecked_at_drain () =
  let pop = pop_of_seed 42 in
  let pvs = P.versions pop in
  let net = mk_net () in
  let reg = Obs.create ~label:"drain" () in
  let gw = G.create ~metrics:reg ~net (Contact.make "gw" 1) (fun _ -> ()) in
  ignore (G.handle_frame gw (meta_frame ~tenant:5 pvs.(2)) : G.outcome);
  let expect_parked what frame =
    match G.handle_frame gw frame with
    | G.Parked -> ()
    | _ -> Alcotest.failf "%s should park behind the compile" what
  in
  (* a 1 ns deadline is still ahead at admission (the clock reads 0) but
     long past when the compile lands *)
  expect_parked "the short-deadline message" (data_frame ~deadline_ns:1 ~tenant:5 pvs.(2));
  expect_parked "the undated message" (data_frame ~tenant:5 pvs.(2));
  Alcotest.(check int) "two parked" 2 (G.pending_depth gw);
  Alcotest.(check (option (float 0.))) "pending gauge while parked" (Some 2.)
    (Obs.Gauge.value reg "gateway.pending_depth");
  ignore (Netsim.run net);
  let s = G.stats gw in
  Alcotest.(check int) "both admitted" 2 s.G.admitted;
  Alcotest.(check int) "the expired one is shed at drain" 1 s.G.shed_deadline;
  Alcotest.(check int) "the other delivers" 1 s.G.delivered;
  Alcotest.(check int) "one compile" 1 s.G.plan_compiles;
  Alcotest.(check int) "pending depth exact" 0 (G.pending_depth gw);
  Alcotest.(check (option (float 0.))) "pending gauge exact" (Some 0.)
    (Obs.Gauge.value reg "gateway.pending_depth")

let test_gateway_recompile_after_eviction () =
  let net = mk_net () in
  let pop = pop_of_seed 42 in
  let pvs = P.versions pop in
  (* room for one plan per tenant: pushing a second format evicts the
     first, and returning to it is a recompile *)
  let config = { G.default_config with G.max_plans = 1; tenant_quota = 1 } in
  let gw = G.create ~config ~net (Contact.make "gw" 1) (fun _ -> ()) in
  ignore (G.handle_frame gw (meta_frame ~tenant:1 pvs.(0)) : G.outcome);
  ignore (G.handle_frame gw (meta_frame ~tenant:1 pvs.(1)) : G.outcome);
  ignore (G.handle_frame gw (data_frame ~tenant:1 pvs.(0)) : G.outcome);
  ignore (Netsim.run net);
  ignore (G.handle_frame gw (data_frame ~tenant:1 pvs.(1)) : G.outcome);
  ignore (Netsim.run net);
  ignore (G.handle_frame gw (data_frame ~tenant:1 pvs.(0)) : G.outcome);
  ignore (Netsim.run net);
  let s = G.stats gw in
  let c = G.cache_stats gw in
  Alcotest.(check int) "three compiles" 3 s.G.plan_compiles;
  Alcotest.(check int) "one was a recompile" 1 s.G.plan_recompiles;
  Alcotest.(check bool) "cache stayed within its bound" true
    (c.PC.high_water <= 1);
  Alcotest.(check int) "all delivered regardless" 3 s.G.delivered

(* Plan-cache thrash sheds nothing: three tenants in turn over two plan
   slots miss on every message after the first two, and each miss evicts,
   recompiles and delivers.  What the thrash leaves is in the counters and
   in the flight recorder's eviction_storm incident. *)
let test_gateway_thrash_evicts_without_shedding () =
  let net = mk_net () in
  let pv = (P.versions (pop_of_seed 42)).(0) in
  let reg = Obs.create ~label:"thrash" () in
  let flight = Obs.Flight.create reg in
  let config = { G.default_config with G.max_plans = 2; tenant_quota = 2 } in
  let gw = G.create ~config ~metrics:reg ~flight ~net (Contact.make "gw" 1) (fun _ -> ()) in
  let tenants = 3 and rounds = 20 in
  for tenant = 1 to tenants do
    ignore (G.handle_frame gw (meta_frame ~tenant pv) : G.outcome)
  done;
  for _ = 1 to rounds do
    for tenant = 1 to tenants do
      ignore (G.handle_frame gw (data_frame ~tenant pv) : G.outcome);
      ignore (Netsim.run net)
    done
  done;
  let sent = tenants * rounds in
  let s = G.stats gw and c = G.cache_stats gw in
  Alcotest.(check int) "all delivered" sent s.G.delivered;
  Alcotest.(check int) "nothing shed" 0 (G.shed_total s);
  Alcotest.(check int) "every miss but the first two evicts" (sent - 2) c.PC.evictions;
  Alcotest.(check int) "every miss after a tenant's first recompiles" (sent - tenants)
    s.G.plan_recompiles;
  Alcotest.(check bool) "cache stayed within its bound" true (c.PC.high_water <= 2);
  Alcotest.(check (list string)) "one eviction storm captured" [ "eviction_storm" ]
    (List.map (fun i -> i.Obs.Flight.kind) (Obs.Flight.incidents flight))

(* Fig. 5's formats under a rollback with an [else] branch, which keeps
   the chain staged.  (The gateway matches ECho 2.0's EventMsg to 1.0
   structurally, so that chain never runs here.) *)
let response_else_meta =
  Morph.meta Helpers.response_v2
    ~xforms:
      [ Morph.xform ~target:Helpers.response_v1
          "old.channel = new.channel;\n\
           if (new.member_count > 0) old.member_count = new.member_count;\n\
           else old.member_count = 0;" ]

(* Each shape compiles once, at the engine it needs: a structural match
   fuses decode and morph, and so does Fig. 5's chain, whose loops
   collapse; a chain with an [else] decodes staged and runs its Ecode.
   Either way the bytes equal an independent interpretive reference, and
   the built-in parity check agrees. *)
let shape_run ~target (meta : Meta.format_meta) (message : string) =
  let net = mk_net () in
  let out = ref [] in
  let config = { G.default_config with G.parity = true } in
  let gw = G.create ~config ~net (Contact.make "gw" 1) (fun d -> out := d :: !out) in
  let push m =
    ignore
      (G.handle_frame gw
         (G.envelope ~tenant:1 ~fingerprint:(G.fingerprint m)
            (Framing.Meta { format_id = 1; meta = Meta.encode m }))
       : G.outcome)
  in
  (* the first push onboards the tenant and pins its target *)
  push (Meta.plain target);
  push meta;
  let fp = G.fingerprint meta in
  ignore
    (G.handle_frame gw
       (G.envelope ~tenant:1 ~fingerprint:fp (Framing.Data { format_id = 1; message }))
     : G.outcome);
  ignore (Netsim.run net);
  Alcotest.(check int) "parity clean" 0 (G.stats gw).G.parity_mismatches;
  match !out with
  | [ d ] -> d
  | l -> Alcotest.failf "expected one delivery, got %d" (List.length l)

let test_gateway_shape_engines () =
  (* structural: reordered fields plus an extra one, no transformation *)
  let v0 = Ptype_dsl.format_of_string_exn "format Tick { int a; string b; }" in
  let v1 = Ptype_dsl.format_of_string_exn "format Tick { string b; int a; int c; }" in
  let value =
    Value.record [ ("b", Value.String "x"); ("a", Value.Int 7); ("c", Value.Int 9) ]
  in
  let message = Wire.encode ~format_id:1 v1 value in
  let d = shape_run ~target:v0 (Meta.plain v1) message in
  Alcotest.check rung_t "structural shape fuses" G.Fused d.G.rung;
  let want =
    Codec.Interp.decode_payload ~endian:Codec.Little ~pos:Codec.header_size v1 message
    |> Convert.compile ~from_:v1 ~into:v0
    |> Codec.Interp.encode_payload ~endian:Codec.Little v0
  in
  Alcotest.(check string) "fused bytes = interpretive reference" want
    (Codec.Interp.encode_payload ~endian:Codec.Little v0 d.G.value);
  (* Ecode chain: the paper's Fig. 5 retro-transformation v2 -> v1 *)
  let v2 = Helpers.sample_v2 3 in
  let message = Wire.encode ~format_id:1 Helpers.response_v2 v2 in
  let chain_shape what rung meta =
    let d = shape_run ~target:Helpers.response_v1 meta message in
    Alcotest.check rung_t (what ^ " shape") rung d.G.rung;
    let want =
      match
        Morph.morph_to ~engine:Morph.Xform.Interpreted meta ~target:Helpers.response_v1
          (Codec.Interp.decode_payload ~endian:Codec.Little ~pos:Codec.header_size
             Helpers.response_v2 message)
      with
      | Ok v -> Codec.Interp.encode_payload ~endian:Codec.Little Helpers.response_v1 v
      | Error e -> Alcotest.failf "interpretive reference: %s" (Err.to_string e)
    in
    Alcotest.(check string) (what ^ " bytes = interpretive reference") want
      (Codec.Interp.encode_payload ~endian:Codec.Little Helpers.response_v1 d.G.value)
  in
  chain_shape "Fig. 5 chain fuses" G.Fused Helpers.response_v2_meta;
  chain_shape "else-branch chain decodes staged" G.Staged response_else_meta

(* A receiver and the gateway decide paths by their own rules, but the
   plan picks the engine, so both run one shape at the same one. *)
let test_receiver_and_gateway_agree_on_engine () =
  let a = Ptype_dsl.format_of_string_exn "format R { int x; string s; }" in
  let b = Ptype_dsl.format_of_string_exn "format R { string s; int x; }" in
  let rv = Value.record [ ("s", Value.String "q"); ("x", Value.Int 1) ] in
  List.iter
    (fun (name, meta, target, value, want) ->
       let r = Morph.Receiver.create () in
       Morph.Receiver.register r target ignore;
       (match Morph.Receiver.plan r meta with
        | Ok p -> Alcotest.check rung_t (name ^ ": receiver") want (Morph.Plan.kind p)
        | Error e -> Alcotest.failf "%s: %s" name e);
       let message = Wire.encode ~format_id:1 meta.Meta.body value in
       Alcotest.check rung_t (name ^ ": gateway") want (shape_run ~target meta message).G.rung)
    [ ("exact match", Meta.plain b, b, rv, G.Fused);
      ("reordered match", Meta.plain a, b,
       Value.record [ ("x", Value.Int 1); ("s", Value.String "q") ], G.Fused);
      ("Fig. 5 loop chain", Helpers.response_v2_meta, Helpers.response_v1,
       Helpers.sample_v2 3, G.Fused);
      ("else-branch chain", response_else_meta, Helpers.response_v1, Helpers.sample_v2 3,
       G.Staged) ]

(* A chain whose map the check refuses runs staged at the gateway too,
   and delivers what the interpreter gives. *)
let test_gateway_refused_map_stays_staged () =
  let d =
    shape_run ~target:Helpers.refused_target Helpers.refused_meta
      (Wire.encode ~format_id:1 Helpers.refused_src Helpers.refused_value)
  in
  Alcotest.check rung_t "refused map decodes staged" G.Staged d.G.rung;
  Alcotest.check Helpers.value "as the interpreter"
    (Helpers.check_ok_err
       (Morph.morph_to ~engine:Morph.Xform.Interpreted Helpers.refused_meta
          ~target:Helpers.refused_target Helpers.refused_value))
    d.G.value

(* A sender's hop that stores past the largest array fails its message at
   the gateway: the frame is rejected and the breaker records the
   failure (the third in a row trips it), and the event loop runs on. *)
let test_gateway_hostile_store_rejected () =
  let src = Ptype_dsl.format_of_string_exn "format S { int a; }" in
  let t = Ptype_dsl.format_of_string_exn "format T { int n; int l[n]; }" in
  let meta = Morph.meta src ~xforms:[ Morph.xform ~target:t "old.l[1152921504606846975] = 1;" ] in
  let net = mk_net () in
  let gw = G.create ~net (Contact.make "gw" 1) (fun _ -> ()) in
  let frame m body =
    G.handle_frame gw (G.envelope ~tenant:1 ~fingerprint:(G.fingerprint m) body)
  in
  ignore (frame (Meta.plain t) (Framing.Meta { format_id = 1; meta = Meta.encode (Meta.plain t) }));
  ignore (frame meta (Framing.Meta { format_id = 2; meta = Meta.encode meta }));
  let message = Wire.encode ~format_id:2 src (Value.record [ ("a", Value.Int 1) ]) in
  for _ = 1 to 3 do
    ignore (frame meta (Framing.Data { format_id = 2; message }) : G.outcome);
    ignore (Netsim.run net)
  done;
  let s = G.stats gw in
  Alcotest.(check (pair int int)) "delivered, rejected" (0, 3) (s.G.delivered, s.G.rejected);
  Alcotest.(check int) "breaker failure recorded" 1 s.G.breaker_trips;
  Alcotest.check (Alcotest.option state_t) "open" (Some Breaker.Open) (G.breaker_state gw 1)

(* A sender's hop with a numeric literal the lexer cannot read is a
   planning refusal at the gateway: each frame is rejected with the
   lexical error, the breaker records the failure (the third in a row
   trips it), and the event loop runs on. *)
let test_gateway_bad_literal_rejected () =
  let src = Ptype_dsl.format_of_string_exn "format S { int a; }" in
  let t = Ptype_dsl.format_of_string_exn "format T { float a; int b; }" in
  let meta = Morph.meta src ~xforms:[ Morph.xform ~target:t "old.b = new.a;\nold.a = 1e+;" ] in
  let net = mk_net () in
  let gw = G.create ~net (Contact.make "gw" 1) (fun _ -> ()) in
  let frame m body =
    G.handle_frame gw (G.envelope ~tenant:1 ~fingerprint:(G.fingerprint m) body)
  in
  ignore (frame (Meta.plain t) (Framing.Meta { format_id = 1; meta = Meta.encode (Meta.plain t) }));
  ignore (frame meta (Framing.Meta { format_id = 2; meta = Meta.encode meta }));
  let message = Wire.encode ~format_id:2 src (Value.record [ ("a", Value.Int 1) ]) in
  for _ = 1 to 3 do
    (match frame meta (Framing.Data { format_id = 2; message }) with
     | G.Rejected msg when Helpers.contains msg "lexical error at 2:9: malformed float literal 1e+" -> ()
     | G.Rejected msg -> Alcotest.failf "rejected for another reason: %s" msg
     | _ -> Alcotest.fail "the frame was not rejected");
    ignore (Netsim.run net)
  done;
  let s = G.stats gw in
  Alcotest.(check (pair int int)) "delivered, rejected" (0, 3) (s.G.delivered, s.G.rejected);
  Alcotest.(check int) "breaker failure recorded" 1 s.G.breaker_trips;
  Alcotest.check (Alcotest.option state_t) "open" (Some Breaker.Open) (G.breaker_state gw 1)

let test_gateway_push_storm_compiles_once () =
  let net = mk_net () in
  let pops = [| pop_of_seed 42; pop_of_seed 7 |] in
  (* compiles take simulated time, and the virtual clock holds still
     between direct calls, so the whole storm lands while they are in
     flight *)
  let config = { G.default_config with G.parity = true } in
  let out = ref [] in
  let gw = G.create ~config ~net (Contact.make "gw" 1) (fun d -> out := d :: !out) in
  let tenants = 6 in
  (* what the memos may share: pushes of one encoding, and compiles of
     one meta against one target (a tenant's target is its lineage base) *)
  let encodings = ref [] and plan_keys = ref [] in
  for tenant = 1 to tenants do
    let pop = pops.(tenant mod 2) in
    Array.iter
      (fun v ->
         let meta = Meta.encode v.P.meta in
         encodings := meta :: !encodings;
         plan_keys := (meta, Meta.encode (Meta.plain (P.base pop))) :: !plan_keys;
         ignore (G.handle_frame gw (meta_frame ~tenant v) : G.outcome))
      (P.versions pop)
  done;
  let sent = ref 0 in
  for _ = 1 to 4 do
    for tenant = 1 to tenants do
      Array.iter
        (fun v ->
           incr sent;
           ignore (G.handle_frame gw (data_frame ~tenant v) : G.outcome))
        (P.versions pops.(tenant mod 2))
    done
  done;
  ignore (Netsim.run net);
  let s = G.stats gw in
  let pairs =
    List.sort_uniq compare
      (List.map (fun (d : G.delivery) -> (d.G.tenant, d.G.fingerprint)) !out)
  in
  Alcotest.(check int) "every message delivered" !sent s.G.delivered;
  Alcotest.(check int) "one compile per (tenant, format)" (List.length pairs)
    s.G.plan_compiles;
  Alcotest.(check int) "no recompiles" 0 s.G.plan_recompiles;
  Alcotest.(check int) "the rest coalesced" (!sent - List.length pairs)
    s.G.singleflight_coalesced;
  Alcotest.(check int) "parity clean" 0 s.G.parity_mismatches;
  Alcotest.(check int) "queue drained" 0 (G.pending_depth gw);
  let distinct l = List.length (List.sort_uniq compare l) in
  Alcotest.(check int) "a plan per distinct (meta, target), shared by the rest"
    (List.length pairs - distinct !plan_keys) s.G.plan_shared;
  Alcotest.(check int) "a decode per distinct encoding, shared by the rest"
    (List.length !encodings - distinct !encodings) s.G.meta_shared;
  Alcotest.(check int) "every push accepted" (List.length !encodings) s.G.meta_pushes

(* The fingerprint covers every hop of a chain: a tenant that fixes the
   fourth hop and re-pushes its meta gets a plan for the fixed chain, not
   the one cached for the first push. *)
let test_gateway_repush_fixed_fourth_hop () =
  let r k =
    Ptype_dsl.format_of_string_exn
      (if k = 0 then "format R0 { int x; }" else Fmt.str "format R%d { int a%d; }" k k)
  in
  let meta last =
    Morph.meta (r 4)
      ~xforms:
        [ Morph.xform ~target:(r 3) "old.a3 = new.a4;";
          Morph.xform ~source:(r 3) ~target:(r 2) "old.a2 = new.a3;";
          Morph.xform ~source:(r 2) ~target:(r 1) "old.a1 = new.a2;";
          Morph.xform ~source:(r 1) ~target:(r 0) last ]
  in
  let v = Value.record [ ("a4", Value.Int 5) ] in
  let message = Wire.encode ~format_id:1 (r 4) v in
  let net = mk_net () in
  let out = ref [] in
  let gw = G.create ~net (Contact.make "gw" 1) (fun d -> out := d :: !out) in
  let send m frame =
    ignore
      (G.handle_frame gw (G.envelope ~tenant:1 ~fingerprint:(G.fingerprint m) frame)
       : G.outcome)
  in
  let push m = send m (Framing.Meta { format_id = 1; meta = Meta.encode m }) in
  (* the first push onboards the tenant and pins R0 as its target *)
  push (Meta.plain (r 0));
  let push_and_deliver m =
    let before = List.length !out in
    push m;
    send m (Framing.Data { format_id = 1; message });
    ignore (Netsim.run net);
    match !out with
    | d :: _ when List.length !out = before + 1 -> d.G.value
    | _ -> Alcotest.fail "expected one delivery"
  in
  let first = meta "old.x = new.a1;" and fixed = meta "old.x = new.a1 + 1000;" in
  Alcotest.check Helpers.value "first push"
    (Value.record [ ("x", Value.Int 5) ]) (push_and_deliver first);
  Alcotest.check Helpers.value "the re-push delivers through the fixed hop"
    (Helpers.check_ok_err (Morph.morph_to fixed ~target:(r 0) v))
    (push_and_deliver fixed);
  Alcotest.(check int) "one plan per pushed meta" 2 (G.stats gw).G.plan_compiles

(* The memos share only what is equal.  Tenants 1 and 2 push metas that
   differ only in the fourth hop's code: neither gets the other's plan.
   Tenants 3 and 4 push tenant 1's meta against targets R0 and R1: 3
   gets tenant 1's plan, 4 one of its own.  Each value is its own
   chain's, in its own target, and parity stays clean. *)
let test_gateway_sharing_never_crosses_what_differs () =
  let r k =
    Ptype_dsl.format_of_string_exn
      (if k = 0 then "format R0 { int x; }" else Fmt.str "format R%d { int a%d; }" k k)
  in
  let meta last =
    Morph.meta (r 4)
      ~xforms:
        [ Morph.xform ~target:(r 3) "old.a3 = new.a4;";
          Morph.xform ~source:(r 3) ~target:(r 2) "old.a2 = new.a3;";
          Morph.xform ~source:(r 2) ~target:(r 1) "old.a1 = new.a2;";
          Morph.xform ~source:(r 1) ~target:(r 0) last ]
  in
  let first = meta "old.x = new.a1;" and fixed = meta "old.x = new.a1 + 1000;" in
  let v = Value.record [ ("a4", Value.Int 5) ] in
  let message = Wire.encode ~format_id:1 (r 4) v in
  let net = mk_net () in
  let out = ref [] in
  let config = { G.default_config with G.parity = true } in
  let gw = G.create ~config ~net (Contact.make "gw" 1) (fun d -> out := d :: !out) in
  let send tenant m frame =
    ignore
      (G.handle_frame gw (G.envelope ~tenant ~fingerprint:(G.fingerprint m) frame)
       : G.outcome)
  in
  let push tenant m = send tenant m (Framing.Meta { format_id = 1; meta = Meta.encode m }) in
  let deliver tenant m =
    send tenant m (Framing.Data { format_id = 1; message });
    ignore (Netsim.run net);
    match !out with
    | d :: _ when d.G.tenant = tenant -> d.G.value
    | _ -> Alcotest.failf "tenant %d: expected a delivery" tenant
  in
  let onboard tenant target m =
    push tenant (Meta.plain target);
    push tenant m
  in
  onboard 1 (r 0) first;
  onboard 2 (r 0) fixed;
  Alcotest.check Helpers.value "tenant 1: its chain" (Value.record [ ("x", Value.Int 5) ])
    (deliver 1 first);
  Alcotest.check Helpers.value "tenant 2: the fixed chain"
    (Helpers.check_ok_err (Morph.morph_to fixed ~target:(r 0) v)) (deliver 2 fixed);
  Alcotest.(check int) "a fourth hop apart: no plan shared" 0 (G.stats gw).G.plan_shared;
  onboard 3 (r 0) first;
  onboard 4 (r 1) first;
  let v3 = deliver 3 first and v4 = deliver 4 first in
  Alcotest.check Helpers.value "tenant 3: in R0" (Value.record [ ("x", Value.Int 5) ]) v3;
  Alcotest.check Helpers.value "tenant 4: in R1" (Value.record [ ("a1", Value.Int 5) ]) v4;
  Alcotest.(check bool) "each conforms to its own target" true
    (Value.conforms (Ptype.Record (r 0)) v3 && Value.conforms (Ptype.Record (r 1)) v4);
  let s = G.stats gw in
  Alcotest.(check (pair int int)) "compiles, shared: only tenant 3's" (4, 1)
    (s.G.plan_compiles, s.G.plan_shared);
  Alcotest.(check int) "parity clean" 0 s.G.parity_mismatches

(* The envelope's fingerprint is checked on a decode-memo hit too. *)
let test_gateway_memo_hit_checks_fingerprint () =
  let pv = (P.versions (pop_of_seed 42)).(0) in
  let gw = G.create ~net:(mk_net ()) (Contact.make "gw" 1) (fun _ -> ()) in
  let push ~tenant ~fingerprint =
    G.handle_frame gw
      (G.envelope ~tenant ~fingerprint
         (Framing.Meta { format_id = 1; meta = Meta.encode pv.P.meta }))
  in
  let fp = G.fingerprint pv.P.meta in
  Alcotest.(check bool) "first push" true (push ~tenant:1 ~fingerprint:fp = G.Onboarded);
  (match push ~tenant:2 ~fingerprint:(fp lxor 1) with
   | G.Ignored msg when Helpers.contains msg "does not match" -> ()
   | _ -> Alcotest.fail "a wrong fingerprint on a memo hit was not ignored");
  let s = G.stats gw in
  Alcotest.(check (pair int int)) "bad frame, nothing shared" (1, 0)
    (s.G.bad_frames, s.G.meta_shared);
  Alcotest.(check bool) "no tenant 2" true (G.breaker_state gw 2 = None);
  Alcotest.(check bool) "the right fingerprint" true (push ~tenant:2 ~fingerprint:fp = G.Onboarded);
  Alcotest.(check int) "shared" 1 (G.stats gw).G.meta_shared

(* Both memos hold at most [max_plans] entries: ten formats through a
   4-plan gateway evict the oldest, and every delivery still matches the
   interpretive reference. *)
let test_gateway_memo_eviction_keeps_parity () =
  let net = mk_net () in
  let delivered = ref [] in
  let config = { G.default_config with G.max_plans = 4; parity = true } in
  let gw = G.create ~config ~net (Contact.make "gw" 1) (fun d -> delivered := d :: !delivered) in
  let format i =
    Ptype_dsl.format_of_string_exn
      (if i = 0 then "format T { int a; }" else Printf.sprintf "format T { int a; int f%d; }" i)
  in
  let meta_of i = Meta.plain (format i) in
  let frame ~tenant i body =
    G.handle_frame gw (G.envelope ~tenant ~fingerprint:(G.fingerprint (meta_of i)) body)
  in
  let push ~tenant i =
    match frame ~tenant i (Framing.Meta { format_id = i; meta = Meta.encode (meta_of i) }) with
    | G.Onboarded -> ()
    | _ -> Alcotest.failf "tenant %d: push %d refused" tenant i
  in
  let data ~tenant i =
    let v =
      Value.record
        (("a", Value.Int i) :: (if i = 0 then [] else [ (Printf.sprintf "f%d" i, Value.Int i) ]))
    in
    let message = Wire.encode ~format_id:i (format i) v in
    ignore (frame ~tenant i (Framing.Data { format_id = i; message }) : G.outcome)
  in
  let formats = 10 in
  for i = 0 to formats do
    push ~tenant:1 i;
    push ~tenant:2 i
  done;
  Alcotest.(check int) "tenant 2's pushes shared" (formats + 1) (G.stats gw).G.meta_shared;
  push ~tenant:1 1;
  Alcotest.(check int) "format 1's decode was evicted" (formats + 1) (G.stats gw).G.meta_shared;
  for i = 1 to formats do
    data ~tenant:1 i;
    data ~tenant:2 i
  done;
  ignore (Netsim.run net);
  Alcotest.(check int) "tenant 2's compiles shared" formats (G.stats gw).G.plan_shared;
  (* both tenants' plans for format 1 left the 4-plan cache, and its memo
     entry went with the next formats: a real recompile *)
  data ~tenant:1 1;
  ignore (Netsim.run net);
  let s = G.stats gw in
  Alcotest.(check (pair int int)) "recompiled, not shared" (1, formats)
    (s.G.plan_recompiles, s.G.plan_shared);
  Alcotest.(check int) "every message delivered" ((2 * formats) + 1) s.G.delivered;
  Alcotest.(check int) "parity clean" 0 s.G.parity_mismatches;
  List.iter
    (fun (d : G.delivery) ->
       Alcotest.(check bool) "in the target" true
         (Value.conforms (Ptype.Record (format 0)) d.G.value))
    !delivered

(* A push of more transformations than a meta may carry is a bad frame,
   turned away before any planning. *)
let test_gateway_meta_xform_cap () =
  let body = Ptype_dsl.format_of_string_exn "format R { int x; }" in
  let hop i =
    { Meta.source = None;
      target = Ptype_dsl.format_of_string_exn (Fmt.str "format T%d { int x; }" i);
      code = "old.x = new.x;" }
  in
  let meta n = { Meta.body = body; xforms = List.init n hop } in
  let gw = G.create ~net:(mk_net ()) (Contact.make "gw" 1) (fun _ -> ()) in
  let push m =
    G.handle_frame gw
      (G.envelope ~tenant:1 ~fingerprint:(G.fingerprint m)
         (Framing.Meta { format_id = 1; meta = Meta.encode m }))
  in
  (match push (meta 65) with
   | G.Ignored _ -> ()
   | _ -> Alcotest.fail "a push of 65 transformations was not ignored");
  Alcotest.(check int) "counted as a bad frame" 1 (G.stats gw).G.bad_frames;
  (match push (meta 64) with
   | G.Onboarded -> ()
   | _ -> Alcotest.fail "a push of 64 transformations was not accepted");
  Alcotest.(check int) "64 is no bad frame" 1 (G.stats gw).G.bad_frames

(* A push over [Meta.max_bytes] is a bad frame, named by the limit. *)
let test_gateway_meta_size_cap () =
  let gw = G.create ~net:(mk_net ()) (Contact.make "gw" 1) (fun _ -> ()) in
  let push n =
    let m = Helpers.meta_of_size n in
    G.handle_frame gw
      (G.envelope ~tenant:1 ~fingerprint:(G.fingerprint m)
         (Framing.Meta { format_id = 1; meta = Meta.encode m }))
  in
  (match push (Meta.max_bytes + 1) with
   | G.Ignored msg when Helpers.contains msg "65536" -> ()
   | G.Ignored msg -> Alcotest.failf "ignored without naming the limit: %s" msg
   | _ -> Alcotest.fail "a push over the size cap was not ignored");
  Alcotest.(check int) "counted as a bad frame" 1 (G.stats gw).G.bad_frames;
  Alcotest.(check bool) "a push at the cap onboards" true (push Meta.max_bytes = G.Onboarded);
  Alcotest.(check int) "no further bad frame" 1 (G.stats gw).G.bad_frames

(* A chain of straight-line hops collapses into one fused plan: it
   delivers on the fused rung, and the parity check against the
   hop-by-hop transform stays clean. *)
let test_gateway_tenant_formats_bounded () =
  (* a sender pushing fresh formats without end: the tenant holds at most
     256 of them, the least recently used go, an evicted fingerprint sheds
     No_meta, and a re-push delivers again *)
  let net = mk_net () in
  let delivered = ref 0 in
  let gw = G.create ~net (Contact.make "gw" 1) (fun _ -> incr delivered) in
  let format i =
    Ptype_dsl.format_of_string_exn
      (if i = 0 then "format T { int a; }" else Printf.sprintf "format T { int a; int f%d; }" i)
  in
  let meta_of i = Meta.plain (format i) in
  let push i =
    let m = meta_of i in
    G.handle_frame gw
      (G.envelope ~tenant:1 ~fingerprint:(G.fingerprint m)
         (Framing.Meta { format_id = i; meta = Meta.encode m }))
  in
  let data i =
    let r = format i in
    let v =
      Value.record
        (("a", Value.Int i) :: (if i = 0 then [] else [ (Printf.sprintf "f%d" i, Value.Int i) ]))
    in
    G.handle_frame gw
      (G.envelope ~tenant:1 ~fingerprint:(G.fingerprint (meta_of i))
         (Framing.Data { format_id = i; message = Wire.encode ~format_id:i r v }))
  in
  let pushes = 2_000 in
  for i = 0 to pushes do
    match push i with
    | G.Onboarded -> ()
    | _ -> Alcotest.failf "push %d was not onboarded" i
  done;
  let held = ref 0 in
  for i = 0 to pushes do
    match data i with
    | G.Shed G.No_meta -> ()
    | _ -> incr held
  done;
  ignore (Netsim.run net);
  Alcotest.(check int) "the newest 256 formats are held" 256 !held;
  Alcotest.(check int) "the rest shed for want of meta" (pushes + 1 - 256)
    (G.stats gw).G.shed_no_meta;
  Alcotest.(check int) "each held format delivers" 256 !delivered;
  (* the first evolved format was evicted; pushed again, it delivers *)
  Alcotest.(check bool) "evicted" true (data 1 = G.Shed G.No_meta);
  Alcotest.(check bool) "re-pushed" true (push 1 = G.Onboarded);
  ignore (data 1 : G.outcome);
  ignore (Netsim.run net);
  Alcotest.(check int) "delivered after the re-push" 257 !delivered

let test_gateway_collapsed_chain_fuses () =
  let v0 = Ptype_dsl.format_of_string_exn "format Tick { int a; string b; }" in
  let v1 = Ptype_dsl.format_of_string_exn "format Tick { float a; string b; }" in
  let v2 = Ptype_dsl.format_of_string_exn "format Tick { float a; string c; int d; }" in
  let meta =
    Morph.meta v2
      ~xforms:[ Morph.xform ~target:v1 "old.a = new.a; old.b = new.c;";
                Morph.xform ~source:v1 ~target:v0 "old.a = new.a; old.b = new.b;" ]
  in
  let value =
    Value.record [ ("a", Value.Float 2.5); ("c", Value.String "x"); ("d", Value.Int 1) ]
  in
  let d = shape_run ~target:v0 meta (Wire.encode ~format_id:1 v2 value) in
  Alcotest.check rung_t "collapsed chain fuses" G.Fused d.G.rung;
  Alcotest.check Helpers.value "value"
    (Value.record [ ("a", Value.Int 2); ("b", Value.String "x") ]) d.G.value

(* --- the acceptance run: 1k tenants, 3x nominal, mass schema push ------------- *)

let acceptance_cfg =
  { L.default_gateway with
    L.g_tenants = 1_000;
    g_lineages = 8;
    g_dist = D.Poisson 12_000.;  (* 3x the 4k/s nominal *)
    g_duration_s = 0.3;
    g_versions = 3;
    g_push_at = [ 0.1 ];  (* mass schema push mid-run *)
    g_deadline_s = 0.02;
    g_samples = 6;
    g_seed = 7;
    g_gateway =
      { G.max_plans = 512; tenant_quota = 4; admit_rate = 200.; admit_burst = 30.;
        parity = true } }

let test_gateway_acceptance () =
  let r = L.run_gateway acceptance_cfg in
  let s = r.L.g_stats in
  let c = r.L.g_cache in
  Alcotest.(check bool) "network quiesced" true r.L.g_quiesced;
  Alcotest.(check bool) "real load" true (r.L.g_sent > 2_000);
  Alcotest.(check bool) "the storm recompiled plans" true (s.G.plan_recompiles > 0);
  (* bounded memory: the shared cache never exceeded its configured cap,
     1k tenants notwithstanding *)
  Alcotest.(check bool) "plan cache within bound"
    true (c.PC.high_water <= 512);
  (* shedding only for deadline or quota reasons, within budget *)
  Alcotest.(check int) "no unknown-tenant sheds" 0 s.G.shed_unknown;
  Alcotest.(check int) "no missing-meta sheds" 0 s.G.shed_no_meta;
  Alcotest.(check int) "no breaker sheds" 0 s.G.shed_breaker;
  Alcotest.(check int) "no overload sheds" 0 s.G.shed_overload;
  Alcotest.(check int) "no failures" 0 s.G.rejected;
  Alcotest.(check bool) "shed ratio within the 10% budget" true
    (float_of_int (G.shed_total s) <= 0.10 *. float_of_int r.L.g_sent);
  (* admitted traffic has bounded latency: deliveries past their deadline
     are shed, so the p99 of what was delivered sits under the deadline *)
  Alcotest.(check bool) "delivered most of the load" true
    (s.G.delivered > (7 * r.L.g_sent) / 10);
  Alcotest.(check bool) "p99 bounded by the deadline" true
    (L.gateway_percentile r 0.99 <= acceptance_cfg.L.g_deadline_s +. 1e-9);
  Alcotest.(check int) "parity clean under overload" 0 s.G.parity_mismatches

let test_gateway_acceptance_replays () =
  let a = L.run_gateway acceptance_cfg in
  let b = L.run_gateway acceptance_cfg in
  Alcotest.(check string) "summaries identical"
    (L.gateway_summary a) (L.gateway_summary b);
  Alcotest.(check string) "trajectories identical" a.L.g_trajectory b.L.g_trajectory

(* --- the chaos campaign ----------------------------------------------------------- *)

(* At the campaign's own shape: 24 tenants over 16 plan slots evict, and
   the burst sheds by quota; with fewer tenants than slots nothing would,
   and the campaign would fail for it. *)
let test_gateway_chaos_smoke () =
  let r = Morphcheck.Gateway_chaos.run ~seed:1 ~cases:2 () in
  if not (Morphcheck.Gateway_chaos.passed r) then
    Alcotest.failf "%a" Morphcheck.Gateway_chaos.pp_report r

(* A campaign shaped so that nothing evicts or sheds (fewer tenants than
   plan slots, too few messages to outrun admission) never reached the
   overload paths: it fails, once for each, as a failure of the whole
   campaign, and its report prints the totals that show it. *)
let test_gateway_chaos_unexercised_fails () =
  let module C = Morphcheck.Gateway_chaos in
  let r = C.run ~seed:1 ~cases:1 ~tenants:4 ~messages:40 () in
  Alcotest.(check bool) "not passed" false (C.passed r);
  Alcotest.(check (list (pair int string))) "campaign-wide failures"
    [ (0, "no run shed a message"); (0, "no run evicted a plan") ]
    (List.map (fun f -> (f.C.case, f.C.reason)) r.C.failures);
  Alcotest.(check (pair int int)) "nothing evicted or shed"
    (0, 0) (r.C.totals.C.evictions, r.C.totals.C.shed_quota + r.C.totals.C.shed_overload);
  Alcotest.(check int) "three runs" 3 r.C.totals.C.runs;
  let text = Fmt.str "%a" C.pp_report r in
  Alcotest.(check bool) "report prints the totals" true
    (Helpers.contains text "3 runs: delivered=")

let test_gateway_observed_case () =
  (* the telemetry-armed soak case: the poison tenant's garbage frames
     trip its breaker, so the flight recorder must hold at least one
     incident, the scrape buffer must be populated, and the whole thing
     must replay deterministically *)
  let module C = Morphcheck.Gateway_chaos in
  let o = C.run_observed ~seed:5 ~tenants:12 ~messages:300 () in
  Alcotest.(check bool) "traffic flowed" true (o.C.o_delivered > 0);
  Alcotest.(check bool) "breaker tripped" true (o.C.o_trips >= 1);
  Alcotest.(check bool) "flight incident captured" true (o.C.o_incidents >= 1);
  Alcotest.(check bool) "network quiesced" true o.C.o_quiesced;
  Alcotest.(check bool) "scrapes captured" true
    (String.length o.C.o_scrape > 0);
  (* incidents carry frozen spans + metrics and export both ways *)
  (match Obs.Flight.incidents o.C.o_flight with
   | [] -> Alcotest.fail "no incidents in the recorder"
   | inc :: _ ->
     Alcotest.(check bool) "chrome export" true
       (Helpers.contains (Obs.Flight.to_chrome_json inc) "traceEvents");
     Alcotest.(check bool) "report names the incident" true
       (Helpers.contains (Obs.Flight.report inc) "incident #1"));
  (* per-tenant shed telemetry picked up the poison tenant's breaker *)
  let prom = Obs.to_prometheus o.C.o_metrics in
  Alcotest.(check bool) "breaker sheds exposed per tenant" true
    (Helpers.contains prom {|reason="breaker"|});
  (* deterministic in the seed: scrape streams replay byte-identically *)
  let o' = C.run_observed ~seed:5 ~tenants:12 ~messages:300 () in
  Alcotest.(check string) "observed case replays" o.C.o_scrape o'.C.o_scrape;
  Alcotest.(check int) "incident count replays" o.C.o_incidents o'.C.o_incidents

(* One tenant on one warm plan, traced, no deadlines: each delivery's
   span carries the tenant's attribute, and keeps nothing alive once the
   trace ring has wrapped. *)
let test_gateway_traced_delivery () =
  let pvs = P.versions (pop_of_seed 42) in
  let net = mk_net () in
  let reg = Obs.create ~label:"gateway" () in
  let gw = G.create ~metrics:reg ~net (Contact.make "gw" 1) ignore in
  ignore (G.handle_frame gw (meta_frame ~tenant:7 pvs.(0)) : G.outcome);
  ignore (G.handle_frame gw (meta_frame ~tenant:7 pvs.(2)) : G.outcome);
  let frame = data_frame ~tenant:7 pvs.(2) in
  ignore (G.handle_frame gw frame : G.outcome);
  ignore (Netsim.run net);
  let deliver () =
    match G.handle_frame gw frame with
    | G.Delivered _ -> ()
    | _ -> Alcotest.fail "expected a delivery on the warm plan"
  in
  deliver ();
  (match List.rev (Obs.Trace.spans reg) with
   | s :: _ ->
     Alcotest.(check string) "the delivery span" "gateway.deliver" s.Obs.Trace.name;
     Alcotest.(check (list (pair string string))) "its attributes"
       [ ("gateway.tenant", "7") ] s.Obs.Trace.attrs
   | [] -> Alcotest.fail "no span recorded");
  let per = Helpers.promoted_words_per_call ~warm:5_000 ~reps:20_000 deliver in
  if per >= 1. then
    Alcotest.failf "a traced gateway delivery promotes %.2f words to the major heap" per

let suite =
  [
    Alcotest.test_case "breaker: trip, cooldown, probe, recover" `Quick
      test_breaker_trip_and_recover;
    Alcotest.test_case "breaker: half-open failure re-trips" `Quick
      test_breaker_half_open_failure_retrips;
    Alcotest.test_case "breaker: no cooldown stays open" `Quick
      test_breaker_no_cooldown_stays_open;
    Alcotest.test_case "plan cache: lru order and stats" `Quick
      test_plan_cache_lru_and_stats;
    Alcotest.test_case "plan cache: a hit allocates only its lookup" `Quick
      test_plan_cache_hit_alloc;
    Alcotest.test_case "plan cache: tenant quota isolates neighbours" `Quick
      test_plan_cache_tenant_quota;
    Alcotest.test_case "plan cache: replace is not an eviction" `Quick
      test_plan_cache_replace;
    Alcotest.test_case "framing: described roundtrip" `Quick test_described_roundtrip;
    Alcotest.test_case "framing: described hostile inputs" `Quick
      test_described_hostile;
    Alcotest.test_case "gateway: onboard and deliver" `Quick
      test_gateway_onboard_and_deliver;
    Alcotest.test_case "gateway: expired work shed before decode" `Quick
      test_gateway_sheds_expired_before_decode;
    Alcotest.test_case "gateway: per-tenant quota shed" `Quick test_gateway_quota_shed;
    Alcotest.test_case "gateway: create refuses an invalid config" `Quick
      test_gateway_create_refuses_bad_config;
    Alcotest.test_case "gateway: breaker trip and half-open probe" `Quick
      test_gateway_breaker_trip_and_probe;
    Alcotest.test_case "gateway: singleflight coalesces a compile storm" `Quick
      test_gateway_singleflight;
    Alcotest.test_case "gateway: pending cap sheds overflow" `Quick
      test_gateway_pending_cap_sheds;
    Alcotest.test_case "gateway: a drained compile re-checks deadlines" `Quick
      test_gateway_deadline_rechecked_at_drain;
    Alcotest.test_case "gateway: the first meta push pins the target" `Quick
      test_gateway_first_push_pins_target;
    Alcotest.test_case "gateway: eviction then recompile, bounded cache" `Quick
      test_gateway_recompile_after_eviction;
    Alcotest.test_case "gateway: plan thrash evicts and recompiles, sheds nothing" `Quick
      test_gateway_thrash_evicts_without_shedding;
    Alcotest.test_case "gateway: each shape delivers at its engine" `Quick
      test_gateway_shape_engines;
    Alcotest.test_case "gateway: a push storm compiles each (tenant, format) once"
      `Quick test_gateway_push_storm_compiles_once;
    Alcotest.test_case "gateway: re-push with a fixed fourth hop replans" `Quick
      test_gateway_repush_fixed_fourth_hop;
    Alcotest.test_case "gateway: tenants never share a plan across what differs" `Quick
      test_gateway_sharing_never_crosses_what_differs;
    Alcotest.test_case "gateway: a memo hit still checks the fingerprint" `Quick
      test_gateway_memo_hit_checks_fingerprint;
    Alcotest.test_case "gateway: memo evictions keep parity" `Quick
      test_gateway_memo_eviction_keeps_parity;
    Alcotest.test_case "gateway: a push over the size cap is ignored" `Quick
      test_gateway_meta_size_cap;
    Alcotest.test_case "gateway: a push over the transformation cap is ignored" `Quick
      test_gateway_meta_xform_cap;
    Alcotest.test_case "gateway: a tenant's formats are bounded" `Quick
      test_gateway_tenant_formats_bounded;
    Alcotest.test_case "gateway: a straight-line chain delivers fused" `Quick
      test_gateway_collapsed_chain_fuses;
    Alcotest.test_case "gateway: 1k tenants at 3x with a schema-push storm" `Slow
      test_gateway_acceptance;
    Alcotest.test_case "gateway: acceptance run replays identically" `Slow
      test_gateway_acceptance_replays;
    Alcotest.test_case "gateway: chaos campaign smoke" `Slow test_gateway_chaos_smoke;
    Alcotest.test_case "gateway: a chaos campaign that never sheds or evicts fails"
      `Quick test_gateway_chaos_unexercised_fails;
    Alcotest.test_case "gateway: observed case trips flight recorder" `Quick
      test_gateway_observed_case;
    Alcotest.test_case "gateway: a traced delivery promotes nothing" `Quick
      test_gateway_traced_delivery;
    Alcotest.test_case "gateway: a receiver runs each shape at the same engine" `Quick
      test_receiver_and_gateway_agree_on_engine;
    Alcotest.test_case "gateway: a chain the map check refuses decodes staged" `Quick
      test_gateway_refused_map_stays_staged;
    Alcotest.test_case "gateway: a numeric literal past its type is a recorded failure" `Quick
      test_gateway_bad_literal_rejected;
    Alcotest.test_case "gateway: a store past the largest array is a recorded failure" `Quick
      test_gateway_hostile_store_rejected;
  ]
