(* The load-harness regression gates: golden tests snapshot the
   deterministic summary of canonical workload mixes, and the same seed
   must replay byte for byte. *)

module L = Loadgen
module D = Loadgen.Dist
module P = Loadgen.Population

let read_file = Helpers.read_file

(* --- canonical workload mixes ---------------------------------------------- *)
(* Each config has a CLI equivalent documented in docs/LOADGEN.md; refresh
   a fixture by running that command and redirecting over the file. *)

let echo_cfg =
  { L.default with
    L.scenario = L.Echo; clients = 500; dist = D.Poisson 2000.;
    duration_s = 0.5; churn_per_s = 50.; versions = 3; sinks = 3; seed = 42 }

let b2b_cfg =
  { L.default with
    L.scenario = L.B2b; clients = 300; dist = D.Constant 800.;
    duration_s = 0.25; churn_per_s = 40.; versions = 2; seed = 11 }

let faulty_cfg =
  { L.default with
    L.scenario = L.Echo; clients = 400;
    dist =
      D.Bursty
        { rate_on = 3000.; rate_off = 200.; period_on_s = 0.05;
          period_off_s = 0.05 };
    duration_s = 0.4; churn_per_s = 25.;
    faults =
      { Transport.Netsim.loss = 0.05; duplication = 0.02; reorder = 0.05;
        jitter_s = 0.001 };
    reliable = true; seed = 13 }

(* --- arrival distributions -------------------------------------------------- *)

let test_dist_strings () =
  let roundtrip d =
    match D.of_string (D.to_string d) with
    | Ok d' -> Alcotest.(check string) "round trip" (D.to_string d) (D.to_string d')
    | Error e -> Alcotest.failf "%s did not parse back: %s" (D.to_string d) e
  in
  roundtrip (D.Constant 150.);
  roundtrip (D.Poisson 2000.);
  roundtrip
    (D.Bursty
       { rate_on = 3000.; rate_off = 200.; period_on_s = 0.05; period_off_s = 0.1 });
  List.iter
    (fun s ->
       match D.of_string s with
       | Ok _ -> Alcotest.failf "%S should not parse" s
       | Error _ -> ())
    [ "constant:0"; "poisson:-1"; "uniform:5"; "bursty:1:2:3"; "" ]

let test_dist_gaps () =
  let st () = Random.State.make [| 5 |] in
  Alcotest.(check (float 1e-12)) "constant gap" 0.01
    (D.next_gap (D.Constant 100.) ~now:0. (st ()));
  let g1 = D.next_gap (D.Poisson 500.) ~now:0. (st ()) in
  let g2 = D.next_gap (D.Poisson 500.) ~now:0. (st ()) in
  Alcotest.(check (float 0.)) "poisson gaps are seeded" g1 g2;
  Alcotest.(check bool) "poisson gap positive" true (g1 > 0.);
  let b =
    D.Bursty { rate_on = 100.; rate_off = 0.; period_on_s = 0.1; period_off_s = 0.1 }
  in
  let gap = D.next_gap b ~now:0.15 (st ()) in
  Alcotest.(check bool) "silent off-phase jumps to the next burst" true
    (gap >= 0.05);
  Alcotest.(check (float 1e-9)) "bursty mean rate" 50. (D.mean_rate b)

(* --- version populations ---------------------------------------------------- *)

let test_population_lineage () =
  let pop = P.make ~versions:4 ~seed:42 () in
  let vs = P.versions pop in
  Alcotest.(check int) "exactly 4 versions" 4 (Array.length vs);
  Alcotest.(check int) "v0 ships no xforms" 0
    (List.length vs.(0).P.meta.Pbio.Meta.xforms);
  Alcotest.(check int) "head ships the full retro chain" 3
    (List.length vs.(3).P.meta.Pbio.Meta.xforms);
  Array.iter
    (fun (v : P.version) ->
       Alcotest.(check bool)
         (Printf.sprintf "v%d has a wire message" v.P.index)
         true
         (String.length v.P.bytes > 0))
    vs;
  let total = Array.fold_left (fun a v -> a +. v.P.weight) 0. vs in
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 total;
  (* deterministic in the seed *)
  let pop' = P.make ~versions:4 ~seed:42 () in
  Alcotest.(check bool) "same seed, same head format" true
    (Pbio.Ptype.equal_record vs.(3).P.format (P.versions pop').(3).P.format)

let test_population_mix () =
  (* newest-first weights: [100] puts everything on the head version *)
  let pop = P.make ~mix:[ 100. ] ~versions:3 ~seed:1 () in
  let st = Random.State.make [| 9 |] in
  for _ = 1 to 50 do
    Alcotest.(check int) "only the head is picked" 2 (P.pick pop st)
  done;
  Alcotest.(check string) "mix description" "v0:0.0% v1:0.0% v2:100.0%"
    (P.describe_mix pop)

(* --- histogram quantiles ---------------------------------------------------- *)

let test_quantile () =
  let reg = Obs.create ~label:"q" () in
  let h = Obs.Histogram.make reg ~buckets:[ 1.; 2.; 3. ] "h" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.5; 2.5 ];
  let s = Option.get (Obs.Histogram.snapshot reg "h") in
  Alcotest.(check (float 0.)) "p0 is the first bucket bound" 1.0
    (Obs.Histogram.quantile s 0.0);
  Alcotest.(check (float 0.)) "p50 lands in the middle bucket" 2.0
    (Obs.Histogram.quantile s 0.5);
  Alcotest.(check (float 0.)) "p100 clamps to the observed max" 2.5
    (Obs.Histogram.quantile s 1.0);
  let h2 = Obs.Histogram.make reg ~buckets:[ 1. ] "h2" in
  Obs.Histogram.observe h2 5.0;
  let s2 = Option.get (Obs.Histogram.snapshot reg "h2") in
  Alcotest.(check (float 0.)) "+inf bucket reports the max" 5.0
    (Obs.Histogram.quantile s2 0.99);
  let h3 = Obs.Histogram.make reg "h3" in
  ignore h3;
  let s3 = Option.get (Obs.Histogram.snapshot reg "h3") in
  Alcotest.(check (float 0.)) "empty histogram" 0. (Obs.Histogram.quantile s3 0.5)

(* --- golden gates ----------------------------------------------------------- *)

let golden fixture cfg () =
  let got = L.summary (L.run cfg) in
  let want = read_file ("golden/" ^ fixture) in
  Alcotest.(check string) fixture want got

let test_golden_twice () =
  (* the gate the CI smoke also runs: two fresh runs of the same seed
     must be byte-identical, summary and trajectory both *)
  let a = L.run echo_cfg and b = L.run echo_cfg in
  Alcotest.(check string) "summaries identical" (L.summary a) (L.summary b);
  Alcotest.(check string) "trajectories identical" a.L.trajectory b.L.trajectory

let test_golden_perturbation () =
  (* any outcome perturbation must fail the golden comparison *)
  let want = read_file "golden/loadgen_echo.txt" in
  let differs what cfg =
    Alcotest.(check bool) what false (String.equal want (L.summary (L.run cfg)))
  in
  differs "seed change perturbs the summary" { echo_cfg with L.seed = 43 };
  differs "mix change perturbs the summary" { echo_cfg with L.mix = Some [ 50.; 50. ] };
  differs "fault change perturbs the summary"
    { echo_cfg with
      L.faults = { Transport.Netsim.no_faults with Transport.Netsim.loss = 0.01 } }

let small_echo =
  { echo_cfg with L.clients = 200; dist = D.Poisson 1000.; duration_s = 0.2 }

(* --- trajectories ----------------------------------------------------------- *)

let test_trajectory_shape () =
  let r = L.run { small_echo with L.samples = 5 } in
  let lines =
    String.split_on_char '\n' r.L.trajectory
    |> List.filter (fun l -> String.length l > 0)
  in
  Alcotest.(check bool) "at least the final sample plus one" true
    (List.length lines >= 2);
  List.iter
    (fun l ->
       Alcotest.(check bool) "object per line" true
         (l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let last = List.nth lines (List.length lines - 1) in
  Alcotest.(check bool) "last sample is final" true
    (Helpers.contains last {|"final":true|});
  List.iteri
    (fun i l ->
       if i < List.length lines - 1 then
         Alcotest.(check bool) "intermediate samples are not final" true
           (Helpers.contains l {|"final":false|}))
    lines

(* --- periodic scrapes --------------------------------------------------------- *)

let scrape_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.length l > 0)

let test_scrape_neutral_and_shaped () =
  (* a scrape only reads the registry, so turning it on must not perturb
     the simulation: same seed, same summary, byte for byte *)
  let quiet = L.run small_echo in
  let scraped = L.run { small_echo with L.scrape_every_s = 0.05 } in
  Alcotest.(check string) "scraping does not perturb the run"
    (L.summary quiet) (L.summary scraped);
  Alcotest.(check string) "no cadence, no scrape buffer" "" quiet.L.scrape;
  let lines = scrape_lines scraped.L.scrape in
  (* 0.2 s at a 0.05 s cadence plus the final post-drain scrape *)
  Alcotest.(check bool) "several scrapes captured" true (List.length lines >= 3);
  List.iteri
    (fun i l ->
       Alcotest.(check bool)
         (Printf.sprintf "scrape %d is numbered and framed" (i + 1))
         true
         (Helpers.contains l (Printf.sprintf {|{"scrape":%d,"t":|} (i + 1))
          && Helpers.contains l {|"series":[{"metric":|}
          && l.[String.length l - 1] = '}'))
    lines;
  (* scrapes freeze the run's own metrics *)
  Alcotest.(check bool) "series include the latency histogram" true
    (Helpers.contains scraped.L.scrape {|"metric":"loadgen.latency_s"|})

let test_gateway_scrape_and_tenant_telemetry () =
  (* 300 tenants against a 256-series label cap: the per-tenant families
     must spill to ["other"] instead of growing without bound, and the
     per-engine families must see the traffic *)
  let cfg =
    { L.default_gateway with
      L.g_tenants = 300;
      g_dist = D.Poisson 4_000.;
      g_duration_s = 0.2;
      g_samples = 4;
      g_seed = 3 }
  in
  let quiet = L.run_gateway cfg in
  let r = L.run_gateway { cfg with L.g_scrape_every_s = 0.05 } in
  Alcotest.(check string) "gateway scraping does not perturb the run"
    (L.gateway_summary quiet) (L.gateway_summary r);
  Alcotest.(check bool) "gateway scrapes captured" true
    (List.length (scrape_lines r.L.g_scrape) >= 3);
  let m = r.L.g_metrics in
  Alcotest.(check int) "admitted family capped at 256" 256
    (Obs.Labeled.series_count m "gateway.tenant.admitted");
  Alcotest.(check bool) "overflow tenants spilled to other" true
    (Obs.Labeled.overflowed m > 0);
  (* per-tenant admitted series carry real counts *)
  let tenant_admitted =
    List.fold_left
      (fun acc name ->
         if String.length name > 24
         && String.sub name 0 24 = "gateway.tenant.admitted{" then
           acc + Obs.Counter.value m name
         else acc)
      0 (Obs.names m)
  in
  Alcotest.(check int) "per-tenant admitted sums to the total"
    r.L.g_stats.Gateway.admitted tenant_admitted;
  (* per-rung deliveries and latencies *)
  let rung r' = Obs.Counter.value m (Printf.sprintf {|gateway.rung.delivered{rung="%s"}|} r') in
  Alcotest.(check int) "per-rung deliveries sum to the total"
    r.L.g_stats.Gateway.delivered
    (rung "fused" + rung "staged");
  let rlat r' =
    Obs.Histogram.count m (Printf.sprintf {|gateway.rung.latency_s{rung="%s"}|} r')
  in
  Alcotest.(check int) "per-rung latency observations match deliveries"
    r.L.g_stats.Gateway.delivered
    (rlat "fused" + rlat "staged");
  (* the whole registry renders as prometheus exposition *)
  let prom = Obs.to_prometheus m in
  Alcotest.(check bool) "labeled tenant series exposed" true
    (Helpers.contains prom {|gateway_tenant_admitted{tenant="|});
  Alcotest.(check bool) "rung histogram exposed" true
    (Helpers.contains prom "# TYPE gateway_rung_latency_s histogram")

(* --- scale ------------------------------------------------------------------ *)

let test_scale_100k () =
  let cfg =
    { L.default with
      L.clients = 100_000; dist = D.Poisson 20_000.; duration_s = 0.5;
      churn_per_s = 200.; versions = 4; seed = 11 }
  in
  let r = L.run cfg in
  Alcotest.(check bool) "offered load arrived" true (r.L.sent > 9_000);
  Alcotest.(check int) "every message was delivered at the ingress"
    r.L.sent r.L.ingress_delivered;
  Alcotest.(check bool) "fan-out delivered" true (r.L.delivered >= r.L.sent);
  Alcotest.(check bool) "network drained" true r.L.quiesced;
  Alcotest.(check int) "active set bookkeeping" r.L.active_end
    (cfg.L.clients + r.L.joins - r.L.leaves);
  let p50 = L.percentile r 0.5 and p999 = L.percentile r 0.999 in
  Alcotest.(check bool) "p50 positive" true (p50 > 0.);
  Alcotest.(check bool) "p999 >= p50" true (p999 >= p50);
  (* determinism holds at scale too *)
  let r' = L.run cfg in
  Alcotest.(check string) "100k run replays byte-identically" (L.summary r)
    (L.summary r')

(* --- flag validation ---------------------------------------------------------- *)
(* Every rejected flag must come back as a structured [`Config] error with
   a message naming the flag — the CLI prints these verbatim instead of
   raising, so the text is part of the surface. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let expect_config_error name check cfg needle =
  match check cfg with
  | Ok () -> Alcotest.failf "%s: bad config accepted" name
  | Error (`Config m) ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S mentions %S" name m needle)
      true (contains ~needle m)
  | Error e -> Alcotest.failf "%s: wrong error kind: %s" name (Pbio.Err.to_string e)

let test_check_rejects_bad_flags () =
  (match L.check L.default with
   | Ok () -> ()
   | Error e -> Alcotest.failf "default config rejected: %s" (Pbio.Err.to_string e));
  let bad name cfg needle = expect_config_error name L.check cfg needle in
  bad "clients" { L.default with L.clients = 0 } "clients";
  bad "duration" { L.default with L.duration_s = 0. } "duration";
  bad "versions" { L.default with L.versions = 0 } "versions";
  bad "sinks" { L.default with L.sinks = 0 } "sinks";
  bad "churn" { L.default with L.churn_per_s = -1. } "churn";
  bad "samples" { L.default with L.samples = 0 } "samples";
  bad "dist" { L.default with L.dist = D.Poisson 0. } "distribution";
  bad "mix negative" { L.default with L.mix = Some [ 1.; -2. ] } "mix";
  bad "mix all zero" { L.default with L.mix = Some [ 0.; 0. ] } "mix";
  bad "mix nan" { L.default with L.mix = Some [ Float.nan ] } "mix"

let test_check_gateway_rejects_bad_flags () =
  (match L.check_gateway L.default_gateway with
   | Ok () -> ()
   | Error e ->
     Alcotest.failf "default gateway config rejected: %s" (Pbio.Err.to_string e));
  let dg = L.default_gateway in
  let gw g = { dg with L.g_gateway = g } in
  let bad name cfg needle = expect_config_error name L.check_gateway cfg needle in
  bad "tenants" { dg with L.g_tenants = 0 } "tenants";
  bad "lineages" { dg with L.g_lineages = 0 } "lineages";
  bad "duration" { dg with L.g_duration_s = -0.1 } "duration";
  bad "versions" { dg with L.g_versions = 0 } "versions";
  bad "churn" { dg with L.g_churn_per_s = -1. } "churn";
  bad "samples" { dg with L.g_samples = 0 } "samples";
  bad "deadline" { dg with L.g_deadline_s = Float.nan } "deadline";
  bad "push-at" { dg with L.g_push_at = [ 0.1; -0.2 ] } "push";
  bad "dist" { dg with L.g_dist = D.Constant 0. } "distribution";
  let g = dg.L.g_gateway in
  (* the gateway's own check, in its field names *)
  bad "max-plans" (gw { g with Gateway.max_plans = 0 }) "max_plans";
  bad "tenant-quota" (gw { g with Gateway.tenant_quota = 0 }) "tenant_quota";
  bad "admit-rate" (gw { g with Gateway.admit_rate = -2. }) "admit_rate";
  bad "admit-burst"
    (gw { g with Gateway.admit_rate = 10.; admit_burst = 0.5 })
    "admit_burst";
  (* run_gateway refuses the same configs instead of running them *)
  (match L.run_gateway { dg with L.g_tenants = 0 } with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "run_gateway accepted a bad config")

let suite =
  [
    Alcotest.test_case "dist: parse/print round trip" `Quick test_dist_strings;
    Alcotest.test_case "dist: gap behaviour" `Quick test_dist_gaps;
    Alcotest.test_case "population: lineage + metas" `Quick test_population_lineage;
    Alcotest.test_case "population: explicit mix" `Quick test_population_mix;
    Alcotest.test_case "obs: histogram quantile" `Quick test_quantile;
    Alcotest.test_case "golden: echo mix" `Quick (golden "loadgen_echo.txt" echo_cfg);
    Alcotest.test_case "golden: b2b mix" `Quick (golden "loadgen_b2b.txt" b2b_cfg);
    Alcotest.test_case "golden: faulty bursty mix" `Quick
      (golden "loadgen_faulty.txt" faulty_cfg);
    Alcotest.test_case "golden: same seed twice is byte-identical" `Quick
      test_golden_twice;
    Alcotest.test_case "golden: perturbations fail the gate" `Quick
      test_golden_perturbation;
    Alcotest.test_case "trajectory: ndjson shape" `Quick test_trajectory_shape;
    Alcotest.test_case "scrape: neutral and well-shaped" `Quick
      test_scrape_neutral_and_shaped;
    Alcotest.test_case "scrape: gateway tenant telemetry" `Quick
      test_gateway_scrape_and_tenant_telemetry;
    Alcotest.test_case "scale: 100k clients on the virtual clock" `Slow
      test_scale_100k;
    Alcotest.test_case "flags: bad loadgen configs rejected" `Quick
      test_check_rejects_bad_flags;
    Alcotest.test_case "flags: bad gateway configs rejected" `Quick
      test_check_gateway_rejects_bad_flags;
  ]
