(* Tests for the dimensional-telemetry layer (lib/obs): labeled metric
   families with bounded cardinality, delta gauges, shard merging of
   labeled series, Prometheus exposition, trace-ring self-telemetry and
   the anomaly flight recorder. *)

let contains = Helpers.contains

(* --- Gauge.add (delta gauges) --------------------------------------------- *)

let test_gauge_add_deltas () =
  let t = Obs.create () in
  let g = Obs.Gauge.make t "depth" in
  Obs.Gauge.add g 3.;
  Obs.Gauge.add g 2.;
  Obs.Gauge.add g (-4.);
  Alcotest.(check (option (float 0.))) "deltas accumulate" (Some 1.)
    (Obs.Gauge.value t "depth");
  (* a set after adds snaps to the absolute value *)
  Obs.Gauge.set g 10.;
  Alcotest.(check (option (float 0.))) "set overrides" (Some 10.)
    (Obs.Gauge.value t "depth")

let test_gauge_merge_semantics () =
  (* delta gauges (built with add) SUM across shards; set gauges keep
     last-write-wins, as before *)
  let a = Obs.create () in
  let b = Obs.create () in
  Obs.Gauge.add (Obs.Gauge.make a "parked") 3.;
  Obs.Gauge.add (Obs.Gauge.make b "parked") 4.;
  Obs.Gauge.set (Obs.Gauge.make a "level") 1.;
  Obs.Gauge.set (Obs.Gauge.make b "level") 2.;
  let m = Obs.merged [ a; b ] in
  Alcotest.(check (option (float 0.))) "delta gauges sum" (Some 7.)
    (Obs.Gauge.value m "parked");
  Alcotest.(check (option (float 0.))) "set gauges last-write-wins" (Some 2.)
    (Obs.Gauge.value m "level")

(* --- labeled family basics ------------------------------------------------- *)

let test_labeled_counter_basics () =
  let t = Obs.create () in
  let fam = Obs.Labeled.counter t ~keys:[ "tenant"; "reason" ] "gw.shed" in
  Obs.Labeled.incr fam [ "7"; "quota" ];
  Obs.Labeled.incr fam [ "7"; "quota" ];
  Obs.Labeled.add fam [ "9"; "deadline" ] 5;
  (* series are ordinary registry entries under composed names *)
  Alcotest.(check int) "series value" 2
    (Obs.Counter.value t {|gw.shed{tenant="7",reason="quota"}|});
  Alcotest.(check int) "second series" 5
    (Obs.Counter.value t {|gw.shed{tenant="9",reason="deadline"}|});
  Alcotest.(check int) "two series minted" 2
    (Obs.Labeled.series_count t "gw.shed");
  Alcotest.(check int) "no overflow" 0 (Obs.Labeled.overflowed t);
  (* pre-resolved handles share the cell with one-shot records *)
  let h = Obs.Labeled.counter_series fam [ "7"; "quota" ] in
  Obs.Counter.incr h;
  Alcotest.(check int) "handle shares the series" 3
    (Obs.Counter.value t {|gw.shed{tenant="7",reason="quota"}|})

let test_labeled_histogram () =
  let t = Obs.create () in
  let h =
    Obs.Labeled.histogram t ~buckets:[ 1.; 10. ] ~keys:[ "rung" ] "gw.lat"
  in
  Obs.Labeled.observe h [ "interp" ] 5.;
  Obs.Labeled.observe h [ "interp" ] 0.5;
  Alcotest.(check int) "histogram series count" 2
    (Obs.Histogram.count t {|gw.lat{rung="interp"}|})

let test_labeled_validation () =
  let t = Obs.create () in
  let fam = Obs.Labeled.counter t ~keys:[ "tenant" ] "v.c" in
  (* arity mismatch *)
  (try
     Obs.Labeled.incr fam [ "1"; "2" ];
     Alcotest.fail "expected Invalid_argument on arity mismatch"
   with Invalid_argument _ -> ());
  (* kind clash on the same family name *)
  (try
     ignore (Obs.Labeled.histogram t ~keys:[ "tenant" ] "v.c");
     Alcotest.fail "expected Invalid_argument on kind clash"
   with Invalid_argument _ -> ());
  (* bad key names *)
  (try
     ignore (Obs.Labeled.counter t ~keys:[ "bad key!" ] "v.k");
     Alcotest.fail "expected Invalid_argument on bad key"
   with Invalid_argument _ -> ());
  (* label values get escaped, not corrupted *)
  let esc = Obs.Labeled.counter t ~keys:[ "who" ] "v.esc" in
  Obs.Labeled.incr esc [ {|a"b\c|} ];
  Alcotest.(check int) "escaped series readable" 1
    (Obs.Counter.value t {|v.esc{who="a\"b\\c"}|})

(* --- cardinality cap and overflow ------------------------------------------ *)

let test_labeled_cap_spills_to_other () =
  let t = Obs.create () in
  let fam =
    Obs.Labeled.counter t ~cardinality:4 ~keys:[ "tenant" ] "cap.c"
  in
  for i = 1 to 10 do
    Obs.Labeled.incr fam [ string_of_int i ]
  done;
  Alcotest.(check int) "cap bounds minted series" 4
    (Obs.Labeled.series_count t "cap.c");
  (* tenants 5..10 all collapse into the reserved other series *)
  Alcotest.(check int) "spill lands in other" 6
    (Obs.Counter.value t {|cap.c{tenant="other"}|});
  Alcotest.(check int) "spills counted" 6 (Obs.Labeled.overflowed t);
  Alcotest.(check int) "overflow counter exported" 6
    (Obs.Counter.value t "obs.label_overflow");
  (* an established series keeps recording after the cap *)
  Obs.Labeled.incr fam [ "2" ];
  Alcotest.(check int) "existing series unaffected" 2
    (Obs.Counter.value t {|cap.c{tenant="2"}|});
  (* addressing other explicitly is not a spill *)
  Obs.Labeled.incr fam [ "other" ];
  Alcotest.(check int) "explicit other is direct" 7
    (Obs.Counter.value t {|cap.c{tenant="other"}|});
  Alcotest.(check int) "explicit other is no spill" 6
    (Obs.Labeled.overflowed t)

let test_labeled_ten_thousand_tenants_bounded () =
  (* the gateway's shape: a tenant-keyed family at cardinality 256 fed by
     10k distinct tenants must stay bounded — cap series + other + the
     overflow counter, never 10k registry entries *)
  let t = Obs.create () in
  let cap = 256 in
  let fam =
    Obs.Labeled.counter t ~cardinality:cap ~keys:[ "tenant" ] "gw.adm"
  in
  for i = 1 to 10_000 do
    Obs.Labeled.incr fam [ string_of_int i ]
  done;
  Alcotest.(check int) "series capped" cap (Obs.Labeled.series_count t "gw.adm");
  Alcotest.(check int) "everything else spilled" (10_000 - cap)
    (Obs.Counter.value t {|gw.adm{tenant="other"}|});
  Alcotest.(check int) "spills counted" (10_000 - cap)
    (Obs.Labeled.overflowed t);
  (* registry stays small: cap + other + obs.label_overflow *)
  Alcotest.(check bool) "registry bounded" true
    (List.length (Obs.names t) <= cap + 2)

let test_labeled_null_inert () =
  let fam = Obs.Labeled.counter Obs.null ~keys:[ "k" ] "n.c" in
  Obs.Labeled.incr fam [ "v" ];
  let h = Obs.Labeled.counter_series fam [ "v" ] in
  Obs.Counter.incr h;
  Alcotest.(check int) "null registers nothing" 0
    (List.length (Obs.names Obs.null))

(* --- merging labeled families across shards -------------------------------- *)

let test_merge_labeled_disjoint_union () =
  let a = Obs.create () in
  let b = Obs.create () in
  let fa = Obs.Labeled.counter a ~keys:[ "tenant" ] "m.c" in
  let fb = Obs.Labeled.counter b ~keys:[ "tenant" ] "m.c" in
  Obs.Labeled.add fa [ "1" ] 3;
  Obs.Labeled.add fb [ "1" ] 4;
  Obs.Labeled.add fb [ "2" ] 9;
  let m = Obs.merged [ a; b ] in
  Alcotest.(check int) "shared series add" 7
    (Obs.Counter.value m {|m.c{tenant="1"}|});
  Alcotest.(check int) "b-only series kept" 9
    (Obs.Counter.value m {|m.c{tenant="2"}|});
  Alcotest.(check int) "merged series count" 2
    (Obs.Labeled.series_count m "m.c")

let test_merge_labeled_other_adds () =
  (* both shards spilled: the reserved series adds like any counter, and
     so does the overflow count *)
  let a = Obs.create () in
  let b = Obs.create () in
  let fa = Obs.Labeled.counter a ~cardinality:1 ~keys:[ "t" ] "o.c" in
  let fb = Obs.Labeled.counter b ~cardinality:1 ~keys:[ "t" ] "o.c" in
  Obs.Labeled.incr fa [ "1" ];
  Obs.Labeled.incr fa [ "2" ] (* spills *);
  Obs.Labeled.incr fb [ "9" ];
  Obs.Labeled.incr fb [ "8" ] (* spills *);
  Obs.Labeled.incr fb [ "7" ] (* spills *);
  let m = Obs.merged [ a; b ] in
  Alcotest.(check int) "other series adds" 3
    (Obs.Counter.value m {|o.c{t="other"}|});
  Alcotest.(check int) "overflow counts add" 3 (Obs.Labeled.overflowed m);
  (* the cap applies at record time per shard, not at merge: both shards'
     distinct minted series survive the union *)
  Alcotest.(check int) "union keeps both minted series" 2
    (Obs.Labeled.series_count m "o.c")

let test_merge_labeled_kind_clash () =
  let a = Obs.create () in
  let b = Obs.create () in
  ignore (Obs.Labeled.counter a ~keys:[ "k" ] "clash.fam");
  ignore (Obs.Labeled.histogram b ~keys:[ "k" ] "clash.fam");
  (try
     Obs.merge_into ~into:a b;
     Alcotest.fail "expected Invalid_argument on family kind clash"
   with Invalid_argument _ -> ())

(* --- Prometheus exposition ------------------------------------------------- *)

let test_prometheus_exposition () =
  let t = Obs.create () in
  Obs.Counter.add (Obs.Counter.make t ~unit_:"B" "net.bytes") 42;
  Obs.Gauge.set (Obs.Gauge.make t "gw.depth") 2.5;
  let fam = Obs.Labeled.counter t ~keys:[ "tenant" ] "gw.shed" in
  Obs.Labeled.add fam [ "7" ] 3;
  Obs.Labeled.add fam [ "9" ] 1;
  let h = Obs.Histogram.make t ~buckets:[ 0.1; 1. ] "gw.lat" in
  Obs.Histogram.observe h 0.0625;
  Obs.Histogram.observe h 4.;
  let out = Obs.to_prometheus t in
  (* names sanitized for prometheus, one TYPE line per family *)
  Alcotest.(check bool) "counter type line" true
    (contains out "# TYPE net_bytes counter");
  Alcotest.(check bool) "counter sample" true (contains out "net_bytes 42");
  Alcotest.(check bool) "gauge type line" true
    (contains out "# TYPE gw_depth gauge");
  Alcotest.(check bool) "gauge sample" true (contains out "gw_depth 2.5");
  (* one TYPE line for the whole labeled family, each series labeled *)
  Alcotest.(check bool) "family type line once" true
    (contains out "# TYPE gw_shed counter");
  Alcotest.(check bool) "labeled series" true
    (contains out {|gw_shed{tenant="7"} 3|});
  Alcotest.(check bool) "second labeled series" true
    (contains out {|gw_shed{tenant="9"} 1|});
  (* histograms expose cumulative buckets, sum and count *)
  Alcotest.(check bool) "histogram type" true
    (contains out "# TYPE gw_lat histogram");
  Alcotest.(check bool) "le bucket" true
    (contains out {|gw_lat_bucket{le="0.1"} 1|});
  Alcotest.(check bool) "cumulative +Inf" true
    (contains out {|gw_lat_bucket{le="+Inf"} 2|});
  Alcotest.(check bool) "sum line" true (contains out "gw_lat_sum 4.0625");
  Alcotest.(check bool) "count line" true (contains out "gw_lat_count 2");
  (* exactly one TYPE line per base name *)
  let type_lines =
    List.filter
      (fun l -> contains l "# TYPE gw_shed ")
      (String.split_on_char '\n' out)
  in
  Alcotest.(check int) "family TYPE emitted once" 1 (List.length type_lines)

let test_prometheus_labeled_histogram_le_merge () =
  let t = Obs.create () in
  let h = Obs.Labeled.histogram t ~buckets:[ 1. ] ~keys:[ "rung" ] "lat.r" in
  Obs.Labeled.observe h [ "fused" ] 0.5;
  let out = Obs.to_prometheus t in
  (* the series labels and the le label merge into one brace set *)
  Alcotest.(check bool) "labels merged with le" true
    (contains out {|lat_r_bucket{rung="fused",le="1"} 1|});
  Alcotest.(check bool) "labeled sum" true
    (contains out {|lat_r_sum{rung="fused"} 0.5|})

(* --- trace-ring self-telemetry --------------------------------------------- *)

let test_trace_self_telemetry () =
  let t = Obs.create () in
  Obs.Trace.set_capacity t 2;
  for i = 1 to 5 do
    Obs.Trace.with_span t (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "drops mirrored to a counter" 3
    (Obs.Counter.value t "obs.spans_dropped");
  Alcotest.(check (option (float 0.))) "depth gauge tracks the ring" (Some 2.)
    (Obs.Gauge.value t "obs.trace_buffer_depth");
  Obs.Trace.clear t;
  Alcotest.(check (option (float 0.))) "clear zeroes the depth" (Some 0.)
    (Obs.Gauge.value t "obs.trace_buffer_depth");
  (* a registry that never traces never registers the self-metrics *)
  let quiet = Obs.create () in
  Obs.Counter.incr (Obs.Counter.make quiet "c");
  Alcotest.(check bool) "self-metrics are lazy" false
    (List.mem "obs.spans_dropped" (Obs.names quiet))

(* --- flight recorder -------------------------------------------------------- *)

let test_flight_capture () =
  let t = Obs.create ~label:"n0" () in
  Obs.set_registry_clock t (fun () -> 5e9);
  Obs.Counter.add (Obs.Counter.make t "deliveries") 9;
  Obs.Trace.record t "hop" ~start_ns:1. ~end_ns:2.;
  let fl = Obs.Flight.create t in
  Obs.Flight.trigger fl ~kind:"breaker_trip" ~reason:"tenant 7 opened";
  Alcotest.(check int) "one incident" 1 (Obs.Flight.count fl);
  (match Obs.Flight.incidents fl with
   | [ inc ] ->
     Alcotest.(check int) "seq" 1 inc.Obs.Flight.seq;
     Alcotest.(check string) "kind" "breaker_trip" inc.Obs.Flight.kind;
     Alcotest.(check string) "reason" "tenant 7 opened" inc.Obs.Flight.reason;
     Alcotest.(check (float 0.)) "trigger time" 5e9 inc.Obs.Flight.at_ns;
     Alcotest.(check int) "spans frozen" 1 (List.length inc.Obs.Flight.spans);
     Alcotest.(check bool) "metrics frozen" true
       (contains inc.Obs.Flight.metrics "\"deliveries\"");
     (* exports: a Perfetto-loadable chrome trace and a text report *)
     let json = Obs.Flight.to_chrome_json inc in
     Alcotest.(check bool) "chrome json" true (contains json "traceEvents");
     let rep = Obs.Flight.report inc in
     Alcotest.(check bool) "report names the kind" true
       (contains rep "breaker_trip");
     Alcotest.(check bool) "report embeds metrics" true
       (contains rep "deliveries")
   | l -> Alcotest.failf "expected 1 incident, got %d" (List.length l));
  (* the incident freezes trigger-time state: later mutations don't leak *)
  Obs.Counter.add (Obs.Counter.make t "deliveries") 100;
  (match Obs.Flight.incidents fl with
   | [ inc ] ->
     Alcotest.(check bool) "snapshot immutable" true
       (contains inc.Obs.Flight.metrics "\"value\":9")
   | _ -> Alcotest.fail "incident vanished");
  (* self-telemetry *)
  Alcotest.(check int) "incident counter" 1
    (Obs.Counter.value t "obs.flight.incidents")

let test_flight_bounds_and_suppression () =
  let t = Obs.create () in
  let fl = Obs.Flight.create t in
  for i = 1 to 9 do
    Obs.Flight.trigger fl ~kind:"shed_burst" ~reason:(string_of_int i)
  done;
  Alcotest.(check int) "buffer bounded" 8 (Obs.Flight.count fl);
  Alcotest.(check int) "excess suppressed" 1 (Obs.Flight.suppressed fl);
  Alcotest.(check int) "suppressions exported" 1
    (Obs.Counter.value t "obs.flight.suppressed");
  (* oldest-first order, earliest incidents kept *)
  Alcotest.(check (list string)) "first incidents kept"
    (List.init 8 (fun i -> string_of_int (i + 1)))
    (List.map (fun i -> i.Obs.Flight.reason) (Obs.Flight.incidents fl));
  Obs.Flight.clear fl;
  Alcotest.(check int) "clear empties" 0 (Obs.Flight.count fl);
  Obs.Flight.trigger fl ~kind:"k" ~reason:"after clear";
  Alcotest.(check int) "recorder live after clear" 1 (Obs.Flight.count fl)

let test_flight_null_inert () =
  let fl = Obs.Flight.create Obs.null in
  Obs.Flight.trigger fl ~kind:"k" ~reason:"r";
  Alcotest.(check int) "null recorder captures nothing" 0 (Obs.Flight.count fl)

let suite =
  [
    Alcotest.test_case "gauge add deltas" `Quick test_gauge_add_deltas;
    Alcotest.test_case "gauge merge semantics" `Quick
      test_gauge_merge_semantics;
    Alcotest.test_case "labeled counter basics" `Quick
      test_labeled_counter_basics;
    Alcotest.test_case "labeled histogram" `Quick test_labeled_histogram;
    Alcotest.test_case "labeled validation" `Quick test_labeled_validation;
    Alcotest.test_case "cap spills to other" `Quick
      test_labeled_cap_spills_to_other;
    Alcotest.test_case "10k tenants stay bounded" `Quick
      test_labeled_ten_thousand_tenants_bounded;
    Alcotest.test_case "labeled null inert" `Quick test_labeled_null_inert;
    Alcotest.test_case "merge labeled disjoint union" `Quick
      test_merge_labeled_disjoint_union;
    Alcotest.test_case "merge labeled other adds" `Quick
      test_merge_labeled_other_adds;
    Alcotest.test_case "merge labeled kind clash" `Quick
      test_merge_labeled_kind_clash;
    Alcotest.test_case "prometheus exposition" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "prometheus labeled histogram le merge" `Quick
      test_prometheus_labeled_histogram_le_merge;
    Alcotest.test_case "trace self-telemetry" `Quick test_trace_self_telemetry;
    Alcotest.test_case "flight capture" `Quick test_flight_capture;
    Alcotest.test_case "flight bounds and suppression" `Quick
      test_flight_bounds_and_suppression;
    Alcotest.test_case "flight null inert" `Quick test_flight_null_inert;
  ]
