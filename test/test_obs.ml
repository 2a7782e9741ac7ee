(* Tests for the observability registry (lib/obs): counters, gauges,
   histograms, span nesting, the null registry and both sinks. *)

let test_counter_basics () =
  let t = Obs.create () in
  let c = Obs.Counter.make t ~unit_:"B" "bytes" in
  Obs.Counter.incr c;
  Obs.Counter.add c 9;
  Alcotest.(check int) "accumulated" 10 (Obs.Counter.value t "bytes");
  Alcotest.(check int) "unknown name reads 0" 0 (Obs.Counter.value t "nope");
  (* a second handle for the same name shares the cell *)
  let c2 = Obs.Counter.make t "bytes" in
  Obs.Counter.incr c2;
  Alcotest.(check int) "handles aggregate" 11 (Obs.Counter.value t "bytes")

let test_gauge_basics () =
  let t = Obs.create () in
  let g = Obs.Gauge.make t "depth" in
  Alcotest.(check (option (float 0.))) "unset" None (Obs.Gauge.value t "depth");
  Obs.Gauge.set g 3.0;
  Obs.Gauge.set g 1.5;
  Alcotest.(check (option (float 0.))) "last write wins" (Some 1.5)
    (Obs.Gauge.value t "depth")

let test_kind_clash_rejected () =
  let t = Obs.create () in
  ignore (Obs.Counter.make t "m");
  (try
     ignore (Obs.Gauge.make t "m");
     Alcotest.fail "expected Invalid_argument on kind clash"
   with Invalid_argument _ -> ())

let test_histogram_bucketing () =
  let t = Obs.create () in
  let h = Obs.Histogram.make t ~buckets:[ 10.; 100. ] "lat" in
  List.iter (Obs.Histogram.observe h) [ 5.; 10.; 11.; 1000. ];
  match Obs.Histogram.snapshot t "lat" with
  | None -> Alcotest.fail "histogram not registered"
  | Some s ->
    Alcotest.(check int) "count" 4 s.Obs.Histogram.count;
    Alcotest.(check (float 0.)) "sum" 1026. s.Obs.Histogram.sum;
    Alcotest.(check (float 0.)) "min" 5. s.Obs.Histogram.min;
    Alcotest.(check (float 0.)) "max" 1000. s.Obs.Histogram.max;
    (* bounds are inclusive upper limits; the implicit +inf bucket is last *)
    (match s.Obs.Histogram.buckets with
     | [ (b1, n1); (b2, n2); (binf, n3) ] ->
       Alcotest.(check (float 0.)) "first bound" 10. b1;
       Alcotest.(check int) "le 10" 2 n1;
       Alcotest.(check (float 0.)) "second bound" 100. b2;
       Alcotest.(check int) "le 100" 1 n2;
       Alcotest.(check bool) "last bound is +inf" true (binf = infinity);
       Alcotest.(check int) "overflow" 1 n3
     | l -> Alcotest.failf "expected 3 buckets, got %d" (List.length l))

(* Quantile estimation at the awkward ends: empty and single-sample
   snapshots, tail quantiles (p999) on tiny populations, and out-of-range
   [q] must all return defined, clamped values — the loadgen and gateway
   reports read p999 off populations of any size. *)
let test_histogram_quantile_edge_cases () =
  let t = Obs.create () in
  let h = Obs.Histogram.make t ~buckets:[ 1.; 10.; 100. ] "q" in
  let snap () =
    match Obs.Histogram.snapshot t "q" with
    | Some s -> s
    | None -> Alcotest.fail "histogram not registered"
  in
  let empty = snap () in
  Alcotest.(check (float 0.)) "empty p50" 0. (Obs.Histogram.quantile empty 0.5);
  Alcotest.(check (float 0.)) "empty p999" 0. (Obs.Histogram.quantile empty 0.999);
  Obs.Histogram.observe h 7.;
  let one = snap () in
  (* a single sample is every quantile of itself *)
  Alcotest.(check (float 0.)) "single p0" 7. (Obs.Histogram.quantile one 0.);
  Alcotest.(check (float 0.)) "single p50" 7. (Obs.Histogram.quantile one 0.5);
  Alcotest.(check (float 0.)) "single p999" 7. (Obs.Histogram.quantile one 0.999);
  Alcotest.(check (float 0.)) "q above 1 clamps" 7. (Obs.Histogram.quantile one 2.);
  Alcotest.(check (float 0.)) "q below 0 clamps" 7. (Obs.Histogram.quantile one (-1.));
  Alcotest.(check (float 0.)) "nan q clamps" 7. (Obs.Histogram.quantile one Float.nan);
  Obs.Histogram.observe h 0.5;
  Obs.Histogram.observe h 50.;
  let tiny = snap () in
  (* three samples: p999 ranks into the last one, clamped to max *)
  Alcotest.(check (float 0.)) "tiny p999 = max" 50.
    (Obs.Histogram.quantile tiny 0.999);
  (* p0 ranks into the lowest sample's bucket: its upper bound (1.0),
     within [min, max] so no clamp applies *)
  Alcotest.(check (float 0.)) "tiny p0" 1. (Obs.Histogram.quantile tiny 0.);
  (* p50 ranks into the middle sample's bucket (upper bound 10) *)
  Alcotest.(check (float 0.)) "tiny p50" 10. (Obs.Histogram.quantile tiny 0.5);
  (* estimates never leave the observed range, whatever the buckets say *)
  List.iter
    (fun q ->
       let e = Obs.Histogram.quantile tiny q in
       Alcotest.(check bool)
         (Printf.sprintf "q=%g within [min, max]" q)
         true
         (e >= tiny.Obs.Histogram.min && e <= tiny.Obs.Histogram.max))
    [ 0.; 0.001; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ]

(* deterministic clock: each read advances 100 ns; per-registry, so no
   restore dance is needed *)
let tick_clock () =
  let ticks = ref 0. in
  fun () ->
    ticks := !ticks +. 100.;
    !ticks

let test_span_nesting () =
  let t = Obs.create () in
  Obs.set_registry_clock t (tick_clock ());
  let got =
    Obs.with_span t "outer" (fun () -> Obs.with_span t "inner" (fun () -> 42))
  in
  Alcotest.(check int) "body result returned" 42 got;
  Alcotest.(check int) "outer recorded" 1 (Obs.Histogram.count t "span:outer");
  Alcotest.(check int) "nested path recorded" 1
    (Obs.Histogram.count t "span:outer/inner");
  (* inner: one clock delta (100); outer: inner + its own reads (300) *)
  Alcotest.(check (float 0.)) "inner duration" 100.
    (Obs.Histogram.sum t "span:outer/inner");
  Alcotest.(check (float 0.)) "outer duration" 300.
    (Obs.Histogram.sum t "span:outer");
  (* the stack pops even when the thunk raises *)
  (try Obs.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "raised span still recorded" 1
    (Obs.Histogram.count t "span:boom")

(* The span histograms' names and nesting: a path is its open spans'
   names joined by "/", whichever parent a name opens under, and a second
   call records into the same histogram.  Each span's trace record is
   parented to the span around it. *)
let test_span_names_pinned () =
  let t = Obs.create () in
  Obs.set_registry_clock t (tick_clock ());
  for _ = 1 to 2 do
    Obs.with_span t "a" (fun () -> Obs.with_span t "b" (fun () -> ()))
  done;
  Obs.with_span t "b" (fun () -> ());
  let spans =
    List.filter (fun n -> String.length n > 5 && String.sub n 0 5 = "span:") (Obs.names t)
  in
  Alcotest.(check (list string)) "span histograms" [ "span:a"; "span:a/b"; "span:b" ] spans;
  Alcotest.(check (list int)) "counts" [ 2; 2; 1 ] (List.map (Obs.Histogram.count t) spans);
  match Obs.Trace.spans t with
  | b :: a :: _ ->
    Alcotest.(check (pair string string)) "names" ("b", "a") (b.Obs.Trace.name, a.Obs.Trace.name);
    Alcotest.(check (option int)) "b parented to a" (Some a.Obs.Trace.span_id)
      b.Obs.Trace.parent_id
  | _ -> Alcotest.fail "expected the nested spans"

(* Once a path has been entered, entering it again builds no string: a
   nested call allocates the same whatever its names' lengths, where
   building its path would take over 2 KB for 1,000-character names. *)
let test_span_warm_allocates_no_string () =
  let per_call a b =
    let t = Obs.create () in
    Obs.Trace.set_capacity t 16;
    let call () = Obs.with_span t a (fun () -> Obs.with_span t b (fun () -> ())) in
    for _ = 1 to 100 do call () done;
    Helpers.alloc_per_call ~reps:1000 call
  in
  let short = per_call "a" "b" in
  let long = per_call (String.make 1000 'a') (String.make 1000 'b') in
  if long > short +. 8. then
    Alcotest.failf "1,000-character names allocate %.1f B a call, 1-character ones %.1f B"
      long short

(* An exception from the body propagates, with its backtrace, after both
   spans are recorded and both stacks popped. *)
exception Boom

let test_span_exception_propagates () =
  let t = Obs.create () in
  Obs.set_registry_clock t (tick_clock ());
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  (match Obs.with_span t "a" (fun () -> Obs.with_span t "b" (fun () -> raise Boom)) with
   | () -> Alcotest.fail "the exception was swallowed"
   | exception Boom ->
     Alcotest.(check bool) "the backtrace names the raise" true
       (Helpers.contains (Printexc.get_backtrace ()) "test_obs.ml"));
  Printexc.record_backtrace recording;
  Alcotest.(check (list int)) "both spans recorded" [ 1; 1 ]
    (List.map (Obs.Histogram.count t) [ "span:a"; "span:a/b" ]);
  Alcotest.(check int) "both trace spans buffered" 2 (List.length (Obs.Trace.spans t));
  Alcotest.(check (option reject)) "trace stack popped" None (Obs.Trace.current t);
  Obs.with_span t "c" (fun () -> ());
  Alcotest.(check int) "span stack popped" 1 (Obs.Histogram.count t "span:c")

let test_null_registry_inert () =
  let t = Obs.null in
  Alcotest.(check bool) "disabled" false (Obs.enabled t);
  let c = Obs.Counter.make t "c" in
  Obs.Counter.add c 5;
  let h = Obs.Histogram.make t "h" in
  Obs.Histogram.observe h 1.0;
  Alcotest.(check int) "counter stays 0" 0 (Obs.Counter.value t "c");
  Alcotest.(check int) "histogram stays empty" 0 (Obs.Histogram.count t "h");
  Alcotest.(check int) "nothing registered" 0 (List.length (Obs.names t));
  Alcotest.(check int) "with_span runs the body" 7
    (Obs.with_span t "s" (fun () -> 7))

let test_reset () =
  let t = Obs.create () in
  let c = Obs.Counter.make t "c" in
  Obs.Counter.add c 5;
  Obs.reset t;
  Alcotest.(check int) "zeroed" 0 (Obs.Counter.value t "c");
  Obs.Counter.incr c;
  Alcotest.(check int) "handle still live after reset" 1 (Obs.Counter.value t "c")

let test_text_sink () =
  let t = Obs.create () in
  Obs.Counter.add (Obs.Counter.make t "hits") 3;
  Obs.Histogram.observe (Obs.Histogram.make t ~unit_:"ns" "lat") 250.;
  let buf = Buffer.create 256 in
  Obs.emit t (Obs.Text (Buffer.add_string buf));
  let out = Buffer.contents buf in
  Alcotest.(check bool) "mentions counter" true (Helpers.contains out "hits");
  Alcotest.(check bool) "mentions histogram" true (Helpers.contains out "lat");
  Alcotest.(check bool) "shows the value" true (Helpers.contains out "3");
  (* the null sink writes nothing and the emit is harmless *)
  Obs.emit t Obs.Null

let test_json_sink_schema () =
  let t = Obs.create () in
  Obs.Counter.add (Obs.Counter.make t ~unit_:"B" "bytes") 42;
  Obs.Gauge.set (Obs.Gauge.make t "depth") 2.5;
  Obs.Histogram.observe (Obs.Histogram.make t ~buckets:[ 10. ] "lat") 7.;
  let buf = Buffer.create 256 in
  Obs.emit t (Obs.Json (Buffer.add_string buf));
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "one line per metric" 3 (List.length lines);
  List.iter
    (fun l ->
       Alcotest.(check bool) "line is an object" true
         (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}');
       Alcotest.(check bool) "has metric key" true
         (Helpers.contains l "\"metric\":"))
    lines;
  let counter_line = List.nth lines 0 in
  Alcotest.(check bool) "counter kind" true
    (Helpers.contains counter_line "\"kind\":\"counter\"");
  Alcotest.(check bool) "counter unit" true
    (Helpers.contains counter_line "\"unit\":\"B\"");
  Alcotest.(check bool) "counter value" true
    (Helpers.contains counter_line "\"value\":42");
  let hist_line = List.nth lines 2 in
  List.iter
    (fun key ->
       Alcotest.(check bool) ("histogram has " ^ key) true
         (Helpers.contains hist_line ("\"" ^ key ^ "\":")))
    [ "count"; "sum"; "min"; "max"; "buckets" ];
  Alcotest.(check bool) "+inf bucket last" true
    (Helpers.contains hist_line "\"le\":\"+inf\"")

let test_registration_order_preserved () =
  let t = Obs.create () in
  ignore (Obs.Counter.make t "a");
  ignore (Obs.Gauge.make t "b");
  ignore (Obs.Counter.make t "c");
  Alcotest.(check (list string)) "names in registration order" [ "a"; "b"; "c" ]
    (Obs.names t)

(* --- scrape-time merging ------------------------------------------------- *)

let test_merge_counters_gauges () =
  let a = Obs.create ~label:"shard0" () in
  let b = Obs.create ~label:"shard1" () in
  Obs.Counter.add (Obs.Counter.make a "deliveries") 3;
  Obs.Counter.add (Obs.Counter.make b "deliveries") 4;
  Obs.Counter.incr (Obs.Counter.make b "only_b");
  Obs.Gauge.set (Obs.Gauge.make a "depth") 2.;
  ignore (Obs.Gauge.make b "depth" : Obs.Gauge.h);
  (* registered but never set in b *)
  let m = Obs.merged [ a; b ] in
  Alcotest.(check int) "counters add" 7 (Obs.Counter.value m "deliveries");
  Alcotest.(check int) "union keeps b-only entries" 1
    (Obs.Counter.value m "only_b");
  Alcotest.(check (option (float 0.))) "unset gauge does not clobber"
    (Some 2.) (Obs.Gauge.value m "depth");
  (* merge order: a's entries first, then b's new ones *)
  Alcotest.(check (list string)) "registration order is union order"
    [ "deliveries"; "depth"; "only_b" ] (Obs.names m)

let test_merge_histograms () =
  let a = Obs.create () in
  let b = Obs.create () in
  let ha = Obs.Histogram.make a ~buckets:[ 1.; 10. ] "lat" in
  let hb = Obs.Histogram.make b ~buckets:[ 1.; 10. ] "lat" in
  Obs.Histogram.observe ha 0.5;
  Obs.Histogram.observe ha 5.;
  Obs.Histogram.observe hb 50.;
  let m = Obs.merged [ a; b ] in
  (match Obs.Histogram.snapshot m "lat" with
   | None -> Alcotest.fail "merged histogram missing"
   | Some s ->
     Alcotest.(check int) "counts add" 3 s.Obs.Histogram.count;
     Alcotest.(check (float 1e-9)) "sums add" 55.5 s.Obs.Histogram.sum;
     Alcotest.(check (float 0.)) "min kept" 0.5 s.Obs.Histogram.min;
     Alcotest.(check (float 0.)) "max kept" 50. s.Obs.Histogram.max;
     Alcotest.(check (list (pair (float 0.) int))) "buckets add"
       [ (1., 1); (10., 1); (infinity, 1) ]
       s.Obs.Histogram.buckets);
  (* mismatched bounds are a programming error, not silent corruption *)
  let c = Obs.create () in
  ignore (Obs.Histogram.make c ~buckets:[ 2.; 20. ] "lat" : Obs.Histogram.h);
  Alcotest.check_raises "bucket mismatch raises"
    (Invalid_argument "Obs.merge_into: histogram \"lat\" has different buckets")
    (fun () -> Obs.merge_into ~into:c a)

let test_merge_into_null_inert () =
  let a = Obs.create () in
  Obs.Counter.incr (Obs.Counter.make a "c");
  Obs.merge_into ~into:Obs.null a;
  Alcotest.(check int) "null stays empty" 0 (Obs.Counter.value Obs.null "c")

(* --- distributed tracing ------------------------------------------------- *)

let test_trace_span_recording () =
  let t = Obs.create ~label:"n0" () in
  Obs.set_registry_clock t (tick_clock ());
  Alcotest.(check (option reject)) "no open span" None (Obs.Trace.current t);
  Obs.Trace.with_span ~attrs:[ ("k", "v") ] t "outer" (fun () ->
      Obs.Trace.add_attr t "extra" "1";
      Obs.Trace.with_span t "inner" (fun () ->
          match Obs.Trace.current t with
          | None -> Alcotest.fail "expected an open span"
          | Some ctx ->
            Alcotest.(check bool) "ctx ids positive" true
              (ctx.Obs.Trace.trace_id > 0 && ctx.Obs.Trace.span_id > 0)));
  match Obs.Trace.spans t with
  | [ inner; outer ] ->
    (* closed innermost-first, so [inner] lands in the buffer first *)
    Alcotest.(check string) "inner name" "inner" inner.Obs.Trace.name;
    Alcotest.(check string) "outer name" "outer" outer.Obs.Trace.name;
    Alcotest.(check string) "node label" "n0" outer.Obs.Trace.node;
    Alcotest.(check int) "same trace" outer.Obs.Trace.trace_id
      inner.Obs.Trace.trace_id;
    Alcotest.(check (option int)) "outer is a root" None
      outer.Obs.Trace.parent_id;
    Alcotest.(check (option int)) "inner parented to outer"
      (Some outer.Obs.Trace.span_id) inner.Obs.Trace.parent_id;
    Alcotest.(check bool) "outer spans inner" true
      (outer.Obs.Trace.start_ns < inner.Obs.Trace.start_ns
       && inner.Obs.Trace.end_ns <= outer.Obs.Trace.end_ns);
    Alcotest.(check (list (pair string string))) "attrs in order"
      [ ("k", "v"); ("extra", "1") ]
      outer.Obs.Trace.attrs
  | l -> Alcotest.failf "expected 2 buffered spans, got %d" (List.length l)

let test_trace_explicit_ctx_and_record () =
  let t = Obs.create () in
  Obs.set_registry_clock t (tick_clock ());
  (* continuing a wire context parents the span without any open stack *)
  let ctx = { Obs.Trace.trace_id = 77; span_id = 9 } in
  Obs.Trace.with_span ~ctx t "deliver" (fun () -> ());
  Obs.Trace.record ~ctx ~attrs:[ ("kind", "hop") ] t "hop" ~start_ns:5.
    ~end_ns:6.;
  (match Obs.Trace.spans t with
   | [ d; h ] ->
     Alcotest.(check int) "ctx trace id kept" 77 d.Obs.Trace.trace_id;
     Alcotest.(check (option int)) "ctx span is the parent" (Some 9)
       d.Obs.Trace.parent_id;
     Alcotest.(check int) "record keeps trace id" 77 h.Obs.Trace.trace_id;
     Alcotest.(check (float 0.)) "record keeps timestamps" 5.
       h.Obs.Trace.start_ns
   | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (* the ring overwrites oldest and counts drops *)
  Obs.Trace.clear t;
  Obs.Trace.set_capacity t 2;
  for i = 1 to 5 do
    Obs.Trace.with_span t (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "capacity held" 2 (List.length (Obs.Trace.spans t));
  Alcotest.(check int) "drops counted" 3 (Obs.Trace.dropped t);
  Alcotest.(check (list string)) "oldest overwritten" [ "s4"; "s5" ]
    (List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans t))

(* The default clock is the monotonic ns clock: it never steps back, and
   it resolves far below a wall clock's 1 us. *)
let test_default_clock_monotonic_ns () =
  let t = Obs.create () in
  let prev = ref (Obs.now t) in
  let fine = ref false in
  for _ = 1 to 100_000 do
    let now = Obs.now t in
    let step = now -. !prev in
    if step < 0. then Alcotest.failf "the clock stepped back by %.0f ns" (-.step);
    if step > 0. && step < 500. then fine := true;
    prev := now
  done;
  Alcotest.(check bool) "some step is finer than 500 ns" true !fine

(* The ring allocates its slots as spans arrive.  Across that growth and
   the wrap it keeps the last [capacity] spans, oldest first, with the
   ids, parents, timestamps and attributes they were recorded with. *)
let test_trace_ring_growth () =
  let t = Obs.create () in
  Obs.set_registry_clock t (tick_clock ());
  Obs.Trace.set_capacity t 100;
  let n = 250 in
  let ids = Array.make n 0 and trace = ref 0 in
  let rec nest d =
    if d < n then
      Obs.Trace.with_span ~attrs:[ ("depth", string_of_int d); ("k", "v") ] t
        (Printf.sprintf "s%d" d) (fun () ->
          (match Obs.Trace.current t with
           | Some c ->
             ids.(d) <- c.Obs.Trace.span_id;
             trace := c.Obs.Trace.trace_id
           | None -> Alcotest.fail "expected an open span");
          Obs.Trace.add_attr t "x" (string_of_int d);
          nest (d + 1);
          Obs.Trace.add_attr t "y" "after")
  in
  nest 0;
  (* spans close innermost first: s249 is buffered first and s0 last, so
     the ring keeps s99 .. s0.  Each read of the tick clock advances
     100 ns: s[d] opens at read d + 1 and closes at read 500 - d. *)
  let spans = Obs.Trace.spans t in
  Alcotest.(check int) "the last 100 spans" 100 (List.length spans);
  List.iteri
    (fun i (s : Obs.Trace.span) ->
       let d = 99 - i in
       let what = Printf.sprintf "s%d " d in
       Alcotest.(check string) (what ^ "name") (Printf.sprintf "s%d" d) s.Obs.Trace.name;
       Alcotest.(check string) (what ^ "node") "main" s.Obs.Trace.node;
       Alcotest.(check int) (what ^ "trace") !trace s.Obs.Trace.trace_id;
       Alcotest.(check int) (what ^ "id") ids.(d) s.Obs.Trace.span_id;
       Alcotest.(check (option int)) (what ^ "parent")
         (if d = 0 then None else Some ids.(d - 1))
         s.Obs.Trace.parent_id;
       Alcotest.(check (float 0.)) (what ^ "start") (float_of_int (100 * (d + 1)))
         s.Obs.Trace.start_ns;
       Alcotest.(check (float 0.)) (what ^ "end") (float_of_int (100 * (500 - d)))
         s.Obs.Trace.end_ns;
       Alcotest.(check (list (pair string string))) (what ^ "attrs")
         [ ("depth", string_of_int d); ("k", "v"); ("x", string_of_int d); ("y", "after") ]
         s.Obs.Trace.attrs)
    spans;
  Alcotest.(check int) "dropped" 150 (Obs.Trace.dropped t);
  Alcotest.(check int) "obs.spans_dropped" 150 (Obs.Counter.value t "obs.spans_dropped");
  Alcotest.(check (option (float 0.))) "obs.trace_buffer_depth" (Some 100.)
    (Obs.Gauge.value t "obs.trace_buffer_depth");
  (* resizing and clearing a grown ring *)
  Obs.Trace.set_capacity t 3;
  Alcotest.(check int) "resized ring starts empty" 0 (List.length (Obs.Trace.spans t));
  for i = 1 to 5 do
    let at = float_of_int i in
    Obs.Trace.record t (Printf.sprintf "r%d" i) ~start_ns:at ~end_ns:at
  done;
  Alcotest.(check (list string)) "resized ring keeps the last 3" [ "r3"; "r4"; "r5" ]
    (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name) (Obs.Trace.spans t));
  Alcotest.(check int) "drops counted from the resize" 2 (Obs.Trace.dropped t);
  Obs.Trace.clear t;
  Alcotest.(check int) "cleared" 0 (List.length (Obs.Trace.spans t));
  Alcotest.(check int) "drops cleared" 0 (Obs.Trace.dropped t);
  Alcotest.(check (option (float 0.))) "depth cleared" (Some 0.)
    (Obs.Gauge.value t "obs.trace_buffer_depth");
  (* a caller that has just read the clock passes that read as the start *)
  Obs.Trace.with_span ~start_ns:7. t "given start" (fun () -> ());
  (match Obs.Trace.spans t with
   | [ s ] -> Alcotest.(check (float 0.)) "start as given" 7. s.Obs.Trace.start_ns
   | l -> Alcotest.failf "expected one span, got %d" (List.length l));
  (* the first span on a fresh registry allocates a few slots, not the
     whole ring *)
  let fresh = Obs.create () in
  let a0 = Helpers.allocated_bytes () in
  Obs.Trace.with_span fresh "first" (fun () -> ());
  let bytes = Helpers.allocated_bytes () -. a0 in
  if bytes >= 4096. then Alcotest.failf "the first span allocated %.0f B" bytes

let test_trace_null_inert () =
  let t = Obs.null in
  Alcotest.(check int) "body still runs" 3
    (Obs.Trace.with_span t "s" (fun () -> 3));
  Obs.Trace.add_attr t "k" "v";
  Obs.Trace.record t "r" ~start_ns:0. ~end_ns:1.;
  Alcotest.(check (option reject)) "no current ctx" None (Obs.Trace.current t);
  Alcotest.(check int) "nothing buffered" 0 (List.length (Obs.Trace.spans t))

let test_trace_registry_clock () =
  let a = Obs.create () in
  let b = Obs.create () in
  Obs.set_registry_clock a (fun () -> 10.);
  Obs.set_registry_clock b (fun () -> 20.);
  Alcotest.(check (float 0.)) "a's clock" 10. (Obs.now a);
  Alcotest.(check (float 0.)) "b's clock" 20. (Obs.now b);
  (* registry clocks are fully independent: retargeting one never
     affects the other (the old process-wide override is gone) *)
  Obs.set_registry_clock a (fun () -> 99.);
  Alcotest.(check (float 0.)) "a retargeted" 99. (Obs.now a);
  Alcotest.(check (float 0.)) "b unaffected" 20. (Obs.now b)

(* hand-craft a span (the record type is public precisely so merge logic
   can be tested on malformed input) *)
let mk ?(trace = 1) ?parent ~id ?(start = 0.) ?(stop = 1.) name node =
  {
    Obs.Trace.trace_id = trace;
    span_id = id;
    parent_id = parent;
    name;
    node;
    start_ns = start;
    end_ns = stop;
    attrs = [];
  }

let rec tree_size (n : Obs.Trace.tree) =
  1 + List.fold_left (fun acc c -> acc + tree_size c) 0 n.Obs.Trace.children

let test_trace_assemble_malformed () =
  let spans =
    [
      mk ~id:1 ~start:0. "root" "a";
      mk ~id:2 ~parent:1 ~start:1. "child" "b";
      mk ~id:2 ~parent:1 ~start:1. "child-dup" "b" (* duplicate span id *);
      mk ~id:3 ~parent:42 ~start:2. "orphan" "c" (* parent never surfaced *);
      mk ~id:4 ~parent:5 ~start:3. "cycle-a" "c" (* parent cycle 4 <-> 5 *);
      mk ~id:5 ~parent:4 ~start:4. "cycle-b" "c";
      mk ~trace:9 ~id:6 ~start:9. "other-root" "a" (* separate trace *);
    ]
  in
  match Obs.Trace.assemble spans with
  | [ t1; t9 ] ->
    Alcotest.(check int) "first trace id" 1 t1.Obs.Trace.id;
    Alcotest.(check int) "second trace id" 9 t9.Obs.Trace.id;
    Alcotest.(check int) "duplicate dropped and counted" 1
      t1.Obs.Trace.duplicates;
    Alcotest.(check int) "five live spans" 5 t1.Obs.Trace.span_count;
    Alcotest.(check int) "all spans reachable from roots" 5
      (List.fold_left (fun acc r -> acc + tree_size r) 0 t1.Obs.Trace.roots);
    let orphan_names =
      List.sort String.compare
        (List.map (fun s -> s.Obs.Trace.name) t1.Obs.Trace.orphans)
    in
    Alcotest.(check (list string)) "orphans flagged, cycles broken"
      [ "cycle-a"; "orphan" ] orphan_names;
    Alcotest.(check int) "preorder walk matches count" 5
      (List.length (Obs.Trace.trace_spans t1));
    Alcotest.(check int) "singleton trace intact" 1 t9.Obs.Trace.span_count
  | l -> Alcotest.failf "expected 2 traces, got %d" (List.length l)

let test_trace_chrome_json () =
  let t = Obs.create ~label:"nodeA" () in
  Obs.set_registry_clock t (tick_clock ());
  Obs.Trace.with_span ~attrs:[ ("cache", "hit") ] t "outer" (fun () ->
      Obs.Trace.with_span t "inner" (fun () -> ()));
  let json = Obs.Trace.to_chrome_json (Obs.Trace.assemble (Obs.Trace.spans t)) in
  let has s = Helpers.contains json s in
  Alcotest.(check bool) "top-level traceEvents array" true
    (has "{\"traceEvents\":[");
  Alcotest.(check bool) "display unit" true
    (has "\"displayTimeUnit\":\"ms\"");
  Alcotest.(check bool) "process metadata event" true
    (has "\"ph\":\"M\"" && has "\"name\":\"process_name\"");
  Alcotest.(check bool) "node label becomes the process" true
    (has "{\"name\":\"nodeA\"}");
  Alcotest.(check bool) "complete events" true (has "\"ph\":\"X\"");
  List.iter
    (fun key -> Alcotest.(check bool) ("event has " ^ key) true (has key))
    [ "\"ts\":"; "\"dur\":"; "\"pid\":"; "\"tid\":"; "\"args\":" ];
  Alcotest.(check bool) "attrs exported in args" true
    (has "\"cache\":\"hit\"");
  Alcotest.(check bool) "ids exported in args" true
    (has "\"trace_id\":" && has "\"span_id\":");
  Alcotest.(check bool) "balanced object" true
    (json.[0] = '{' && json.[String.length json - 1] = '}');
  (* the waterfall names both spans and the node *)
  let text = Obs.Trace.to_waterfall (Obs.Trace.assemble (Obs.Trace.spans t)) in
  List.iter
    (fun s ->
       Alcotest.(check bool) ("waterfall mentions " ^ s) true
         (Helpers.contains text s))
    [ "outer"; "inner"; "nodeA"; "cache=hit" ]

(* A fixed span set with hand-assigned ids (the live id counter is
   process-global, so golden output must never depend on it): one
   cross-node trace with a retransmitted hop, plus an orphan in a second
   trace.  [Golden_promote] exports the same sample when refreshing the
   fixture. *)
let chrome_sample_spans =
  let sp ~trace_id ~span_id ~parent_id ~name ~node ~t0 ~t1 attrs =
    { Obs.Trace.trace_id; span_id; parent_id; name; node; start_ns = t0;
      end_ns = t1; attrs }
  in
  [
    sp ~trace_id:7 ~span_id:1 ~parent_id:None ~name:"conn.send" ~node:"a"
      ~t0:1_000. ~t1:9_000. [ ("bytes", "64") ];
    sp ~trace_id:7 ~span_id:2 ~parent_id:(Some 1) ~name:"net.hop" ~node:"a"
      ~t0:1_200. ~t1:2_400.
      [ ("dst", "b:2"); ("bytes", "64"); ("retransmit", "1") ];
    sp ~trace_id:7 ~span_id:3 ~parent_id:(Some 1) ~name:"conn.deliver"
      ~node:"b" ~t0:2_500. ~t1:8_000. [];
    sp ~trace_id:9 ~span_id:4 ~parent_id:(Some 99) ~name:"orphan.span"
      ~node:"b" ~t0:10_000. ~t1:11_000. [];
  ]

let chrome_sample_json () =
  Obs.Trace.to_chrome_json (Obs.Trace.assemble chrome_sample_spans)

(* Snapshot of the Perfetto exporter: byte-stable field ordering is part
   of the contract (external tooling parses it), so any drift must show
   up as a golden diff, not silently. *)
let test_trace_chrome_json_golden () =
  Alcotest.(check string) "chrome json snapshot"
    (Helpers.read_file "golden/trace_chrome.json")
    (chrome_sample_json ())

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
    Alcotest.test_case "kind clash rejected" `Quick test_kind_clash_rejected;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
    Alcotest.test_case "histogram quantile edge cases" `Quick
      test_histogram_quantile_edge_cases;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span names and nesting pinned" `Quick test_span_names_pinned;
    Alcotest.test_case "a warm nested span builds no string" `Quick
      test_span_warm_allocates_no_string;
    Alcotest.test_case "a span's exception propagates" `Quick
      test_span_exception_propagates;
    Alcotest.test_case "null registry is inert" `Quick test_null_registry_inert;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "text sink" `Quick test_text_sink;
    Alcotest.test_case "json sink schema" `Quick test_json_sink_schema;
    Alcotest.test_case "registration order preserved" `Quick
      test_registration_order_preserved;
    Alcotest.test_case "merge counters and gauges" `Quick
      test_merge_counters_gauges;
    Alcotest.test_case "merge histograms" `Quick test_merge_histograms;
    Alcotest.test_case "merge into null is inert" `Quick
      test_merge_into_null_inert;
    Alcotest.test_case "trace span recording" `Quick test_trace_span_recording;
    Alcotest.test_case "trace explicit ctx, record, ring" `Quick
      test_trace_explicit_ctx_and_record;
    Alcotest.test_case "trace null registry inert" `Quick test_trace_null_inert;
    Alcotest.test_case "default clock: monotonic ns" `Quick
      test_default_clock_monotonic_ns;
    Alcotest.test_case "trace ring across growth" `Quick test_trace_ring_growth;
    Alcotest.test_case "per-registry clock and override" `Quick
      test_trace_registry_clock;
    Alcotest.test_case "assemble tolerates malformed input" `Quick
      test_trace_assemble_malformed;
    Alcotest.test_case "chrome json + waterfall export" `Quick
      test_trace_chrome_json;
    Alcotest.test_case "chrome json golden snapshot" `Quick
      test_trace_chrome_json_golden;
  ]
