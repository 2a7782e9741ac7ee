(* Tests for the simulated transport: contacts, the event queue, the network
   simulator, framing and the out-of-band meta-data connection protocol. *)

open Pbio
module Contact = Transport.Contact
module Pqueue = Transport.Pqueue
module Netsim = Transport.Netsim
module Framing = Transport.Framing
module Conn = Transport.Conn

let test_contact () =
  let c = Contact.make "host.example" 8080 in
  Alcotest.(check string) "to_string" "host.example:8080" (Contact.to_string c);
  (match Contact.of_string "a.b.c:99" with
   | Ok c' -> Alcotest.(check int) "port" 99 c'.Contact.port
   | Error e -> Alcotest.fail e);
  (match Contact.of_string "noport" with
   | Ok _ -> Alcotest.fail "expected error"
   | Error _ -> ());
  (match Contact.of_string "x:notanum" with
   | Ok _ -> Alcotest.fail "expected error"
   | Error _ -> ());
  Alcotest.(check bool) "equal" true (Contact.equal c (Contact.make "host.example" 8080));
  Alcotest.(check bool) "not equal" false (Contact.equal c (Contact.make "host.example" 1))

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  Pqueue.push q 3.0 "c";
  Pqueue.push q 1.0 "a";
  Pqueue.push q 2.0 "b";
  Pqueue.push q 1.0 "a2"; (* same priority: insertion order *)
  let pop () = match Pqueue.pop q with Some (_, x) -> x | None -> "<empty>" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "fifo tie" "a2" (pop ());
  Alcotest.(check string) "then b" "b" (pop ());
  Alcotest.(check string) "then c" "c" (pop ());
  Alcotest.(check bool) "empty" true (Pqueue.pop q = None)

(* A popped entry must not stay reachable from a slot the heap vacated:
   in Netsim the entries are delivered frames' payloads and fired timers'
   closures. *)
let test_pqueue_releases_popped () =
  let q = Pqueue.create () in
  let n = 100 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let payload = Bytes.make 64 'x' in
    Weak.set weak i (Some payload);
    Pqueue.push q (float_of_int (i * 37 mod n)) payload
  done;
  for _ = 1 to n do
    ignore (Pqueue.pop q : (float * Bytes.t) option)
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr live
  done;
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q);
  Alcotest.(check int) "no popped payload stays reachable" 0 !live

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue drains in priority order" ~count:200
    QCheck.(list (float_bound_inclusive 100.0))
    (fun prios ->
       let q = Pqueue.create () in
       List.iteri (fun i p -> Pqueue.push q p i) prios;
       let rec drain acc =
         match Pqueue.pop q with
         | None -> List.rev acc
         | Some (p, _) -> drain (p :: acc)
       in
       let out = drain [] in
       out = List.stable_sort Float.compare prios)

(* Pushes ([Some p]) interleaved with pops ([None]) against a model that
   keeps (priority, insertion order) pairs: every pop must return the
   model's least pair, so slots refilled after a pop keep heap order and
   FIFO ties.  Small integer priorities make ties common. *)
let prop_pqueue_interleaved =
  QCheck.Test.make ~name:"pqueue interleaved pushes and pops match a stable model"
    ~count:200
    QCheck.(list (option (int_bound 5)))
    (fun ops ->
       let q = Pqueue.create () in
       let model = ref [] and seq = ref 0 in
       List.for_all
         (function
           | Some p ->
             Pqueue.push q (float_of_int p) !seq;
             model := (float_of_int p, !seq) :: !model;
             incr seq;
             true
           | None ->
             (match Pqueue.pop q, List.sort compare !model with
              | None, [] -> true
              | Some got, least :: rest ->
                model := rest;
                got = least
              | _ -> false))
         ops
       && Pqueue.is_empty q = (!model = []))

let test_netsim_delivery_and_latency () =
  let config = { Netsim.latency_s = 0.001; bandwidth_bytes_per_s = 1000.0 } in
  let net = Netsim.create ~config () in
  let a = Contact.make "a" 1 and b = Contact.make "b" 2 in
  let got = ref [] in
  Netsim.add_node net a (fun ~src:_ _ -> ());
  Netsim.add_node net b (fun ~src payload -> got := (src, payload) :: !got);
  Netsim.send net ~src:a ~dst:b (String.make 100 'x');
  Alcotest.(check int) "queued, not yet delivered" 0 (List.length !got);
  ignore (Netsim.run net);
  Alcotest.(check int) "delivered" 1 (List.length !got);
  (* 1ms latency + 100 bytes / 1000 B/s = 0.101 s *)
  Alcotest.(check (float 1e-9)) "sim time" 0.101 (Netsim.now net);
  let s = Netsim.stats net in
  Alcotest.(check int) "bytes" 100 s.Netsim.bytes

let test_netsim_ordering () =
  (* messages to the same destination arrive in send order when sizes are
     equal; an earlier large message can be overtaken by later small ones
     only if delays differ *)
  let net = Netsim.create () in
  let a = Contact.make "a" 1 and b = Contact.make "b" 2 in
  let got = ref [] in
  Netsim.add_node net a (fun ~src:_ _ -> ());
  Netsim.add_node net b (fun ~src:_ payload -> got := payload :: !got);
  List.iter (fun p -> Netsim.send net ~src:a ~dst:b p) [ "1"; "2"; "3" ];
  ignore (Netsim.run net);
  Alcotest.(check (list string)) "in order" [ "3"; "2"; "1" ] !got

let test_netsim_drops () =
  let net = Netsim.create () in
  let a = Contact.make "a" 1 and b = Contact.make "b" 2 in
  Netsim.add_node net a (fun ~src:_ _ -> ());
  Netsim.add_node net b (fun ~src:_ _ -> ());
  (* unknown destination *)
  Netsim.send net ~src:a ~dst:(Contact.make "ghost" 9) "x";
  Alcotest.(check int) "dropped unknown" 1
    (Netsim.stats net).Netsim.drops_unknown_dst;
  (* partitioned link *)
  Netsim.add_partition net ~group_a:[ a ] ~group_b:[ b ] ~start:0.0 ~stop:1.0;
  Netsim.send net ~src:a ~dst:b "x";
  Alcotest.(check int) "dropped on a partitioned link" 1
    (Netsim.stats net).Netsim.drops_link_down;
  Alcotest.(check int) "total drops" 2 (Netsim.dropped (Netsim.stats net));
  (* the partition heals at t = 1 *)
  ignore (Netsim.advance net 1.0 : int);
  Netsim.send net ~src:a ~dst:b "x";
  ignore (Netsim.run net);
  Alcotest.(check int) "delivered after repair" 1 (Netsim.stats net).Netsim.messages

let test_netsim_duplicate_node () =
  let net = Netsim.create () in
  let a = Contact.make "a" 1 in
  Netsim.add_node net a (fun ~src:_ _ -> ());
  (try
     Netsim.add_node net a (fun ~src:_ _ -> ());
     Alcotest.fail "expected Duplicate_node"
   with Netsim.Duplicate_node _ -> ())

let test_netsim_cascading () =
  (* handlers that send more messages keep the run going *)
  let net = Netsim.create () in
  let a = Contact.make "a" 1 and b = Contact.make "b" 2 in
  let hops = ref 0 in
  Netsim.add_node net a (fun ~src:_ payload ->
      incr hops;
      if String.length payload < 5 then Netsim.send net ~src:a ~dst:b (payload ^ "a"));
  Netsim.add_node net b (fun ~src:_ payload ->
      incr hops;
      if String.length payload < 5 then Netsim.send net ~src:b ~dst:a (payload ^ "b"));
  Netsim.send net ~src:a ~dst:b "x";
  let result = Netsim.run net in
  Alcotest.(check int) "ping-pong until length 5" 5 result.Netsim.steps;
  Alcotest.(check bool) "quiesced" true result.Netsim.quiesced

let test_netsim_send_arrival () =
  let config = { Netsim.latency_s = 0.001; bandwidth_bytes_per_s = 1000.0 } in
  let net = Netsim.create ~config () in
  let a = Contact.make "a" 1 and b = Contact.make "b" 2 and c = Contact.make "c" 3 in
  List.iter (fun n -> Netsim.add_node net n (fun ~src:_ _ -> ())) [ a; b; c ];
  let arrival = Alcotest.(option (float 1e-9)) in
  (* 1 ms latency + 10 bytes / 1000 B/s *)
  Alcotest.check arrival "latency plus serialisation" (Some 0.011)
    (Netsim.send_arrival net ~src:a ~dst:b (String.make 10 'x'));
  (* the link is FIFO: a smaller frame sent next lands no earlier *)
  Alcotest.check arrival "queued behind the first" (Some 0.011)
    (Netsim.send_arrival net ~src:a ~dst:b "y");
  Alcotest.check arrival "another link is not held back" (Some 0.002)
    (Netsim.send_arrival net ~src:a ~dst:c "z");
  Alcotest.check arrival "unknown destination" None
    (Netsim.send_arrival net ~src:a ~dst:(Contact.make "ghost" 9) "x");
  Netsim.add_partition net ~group_a:[ a ] ~group_b:[ b ] ~start:0.0 ~stop:1.0;
  Alcotest.check arrival "partitioned link" None (Netsim.send_arrival net ~src:a ~dst:b "x");
  Netsim.set_faults net { Netsim.no_faults with Netsim.loss = 1.0 };
  Alcotest.check arrival "injected loss" None (Netsim.send_arrival net ~src:a ~dst:c "x");
  ignore (Netsim.run net);
  Alcotest.(check int) "the three scheduled frames arrive" 3
    (Netsim.stats net).Netsim.messages;
  Alcotest.(check int) "the three dropped ones are counted" 3
    (Netsim.dropped (Netsim.stats net));
  Alcotest.(check (float 1e-9)) "the clock stops at the last arrival" 0.011 (Netsim.now net)

(* Nothing the simulator is done with stays reachable from it: neither a
   delivered frame's payload nor a fired timer's closure (and what it
   captured). *)
let test_netsim_releases_delivered () =
  let net = Netsim.create () in
  let a = Contact.make "a" 1 and b = Contact.make "b" 2 in
  let got = ref 0 and fired = ref 0 in
  Netsim.add_node net a (fun ~src:_ _ -> ());
  Netsim.add_node net b (fun ~src:_ _ -> incr got);
  let n = 50 in
  let payloads = Weak.create n and captured = Weak.create n in
  for i = 0 to n - 1 do
    let payload = String.make 64 'p' in
    Weak.set payloads i (Some payload);
    Netsim.send net ~src:a ~dst:b payload;
    let state = Bytes.make 64 't' in
    Weak.set captured i (Some state);
    Netsim.after net (float_of_int (i * 7 mod n) *. 1e-3) (fun () ->
        fired := !fired + Bytes.length state / 64)
  done;
  ignore (Netsim.run net);
  Gc.full_major ();
  let live w =
    let k = ref 0 in
    for i = 0 to n - 1 do
      if Weak.check w i then incr k
    done;
    !k
  in
  Alcotest.(check int) "all delivered" n !got;
  Alcotest.(check int) "all timers fired" n !fired;
  Alcotest.(check int) "no delivered payload stays reachable" 0 (live payloads);
  Alcotest.(check int) "no fired timer's state stays reachable" 0 (live captured);
  (* the simulator itself stayed live across the collection *)
  Netsim.send net ~src:a ~dst:b "after";
  ignore (Netsim.run net);
  Alcotest.(check int) "still delivering" (n + 1) (Netsim.stats net).Netsim.messages

(* --- framing -------------------------------------------------------------------- *)

let test_framing_roundtrip () =
  let frames =
    [
      Framing.Meta { format_id = 3; meta = "metadata-bytes" };
      Framing.Data { format_id = 77; message = String.make 100 '\x00' };
      Framing.Meta_request { format_id = 12 };
    ]
  in
  List.iter
    (fun f ->
       let f' = Helpers.check_ok_err (Framing.decode (Framing.encode f)) in
       Alcotest.(check bool) "roundtrip" true (f = f'))
    frames

let test_framing_errors () =
  let expect_err s =
    match Framing.decode s with
    | Ok _ -> Alcotest.fail "expected a `Frame error"
    | Error (`Frame _) -> ()
    | Error e -> Alcotest.failf "expected a `Frame error, got: %s" (Pbio.Err.to_string e)
  in
  expect_err "";
  expect_err "\x02short";
  expect_err ("\x09" ^ String.make 8 '\x00'); (* bad kind *)
  let good = Framing.encode (Framing.Data { format_id = 1; message = "abc" }) in
  expect_err (good ^ "x");
  expect_err (String.sub good 0 (String.length good - 1))

let test_framing_decode_result () =
  (* every strict prefix of a valid frame is a structured error; the full
     frame decodes back to itself *)
  let frames =
    [
      Framing.Meta { format_id = 3; meta = "metadata-bytes" };
      Framing.Data { format_id = 77; message = "payload" };
      Framing.Meta_request { format_id = 12 };
    ]
  in
  List.iter
    (fun f ->
       let enc = Framing.encode f in
       for n = 0 to String.length enc - 1 do
         match Framing.decode (String.sub enc 0 n) with
         | Ok _ -> Alcotest.failf "accepted a %d-byte prefix of a %d-byte frame" n (String.length enc)
         | Error _ -> ()
       done;
       match Framing.decode enc with
       | Ok f' -> Alcotest.(check bool) "full frame roundtrips" true (f = f')
       | Error e -> Alcotest.failf "rejected a well-formed frame: %s" (Pbio.Err.to_string e))
    frames

let test_framing_envelopes_in_place () =
  (* a Reliable(Traced(Described(Data))) frame round-trips, every strict
     prefix of it is an error, and its decode copies the leaf's body once:
     each envelope's inner frame is parsed where it lies in the frame *)
  let message = String.make 9_000 'm' in
  let f =
    Framing.Reliable
      { seq = 7;
        frame =
          Framing.Traced
            { trace_id = 11; parent_span = 3;
              frame =
                Framing.Described
                  { tenant = 4; fingerprint = 99; deadline_ns = 5;
                    frame = Framing.Data { format_id = 2; message } } } }
  in
  let enc = Framing.encode f in
  Alcotest.(check bool) "roundtrip" true (Helpers.check_ok_err (Framing.decode enc) = f);
  for n = 0 to String.length enc - 1 do
    match Framing.decode (String.sub enc 0 n) with
    | Ok _ -> Alcotest.failf "accepted a %d-byte prefix" n
    | Error _ -> ()
  done;
  let per_decode = Helpers.alloc_per_call (fun () -> ignore (Framing.decode enc)) in
  if per_decode > float_of_int (String.length message + 256) then
    Alcotest.failf "decoding a %d-byte body in three envelopes allocates %.0f B"
      (String.length message) per_decode

let test_framing_garbage_kinds () =
  (* an unknown kind byte with an otherwise plausible header is an error *)
  List.iter
    (fun k ->
       let bogus = String.make 1 (Char.chr k) ^ String.make 8 '\x00' in
       match Framing.decode bogus with
       | Ok _ -> Alcotest.failf "accepted kind byte %d" k
       | Error e ->
         Alcotest.(check bool) "mentions the kind" true
           (Helpers.contains (Pbio.Err.to_string e) "kind"))
    (* kind 7 is the described envelope since the gateway PR, so the first
       unassigned kind is 8 *)
    [ 0; 8; 9; 0x41; 255 ]

let test_framing_traced () =
  (* the traced envelope round-trips, composes under Reliable, and both
     truncated and nested-envelope bodies are rejected *)
  let inner = Framing.Data { format_id = 5; message = "payload" } in
  let traced = Framing.Traced { trace_id = 123456789; parent_span = 42; frame = inner } in
  let enc = Framing.encode traced in
  Alcotest.(check bool) "roundtrip" true
    (Helpers.check_ok_err (Framing.decode enc) = traced);
  let rel = Framing.Reliable { seq = 7; frame = traced } in
  Alcotest.(check bool) "reliable-around-traced roundtrips" true
    (Helpers.check_ok_err (Framing.decode (Framing.encode rel)) = rel);
  for n = 0 to String.length enc - 1 do
    match Framing.decode (String.sub enc 0 n) with
    | Ok _ -> Alcotest.failf "accepted a %d-byte prefix" n
    | Error _ -> ()
  done;
  let expect_raise f =
    try
      ignore (Framing.encode f);
      Alcotest.fail "expected Frame_error"
    with Framing.Frame_error _ -> ()
  in
  (* tracing is end-to-end, reliability per-hop: Traced never nests an
     envelope, and the context must be non-negative *)
  expect_raise (Framing.Traced { trace_id = 1; parent_span = 0; frame = traced });
  expect_raise (Framing.Traced { trace_id = 1; parent_span = 0; frame = rel });
  expect_raise
    (Framing.Traced { trace_id = 1; parent_span = 0; frame = Framing.Ack { seq = 1 } });
  expect_raise (Framing.Traced { trace_id = -1; parent_span = 0; frame = inner });
  expect_raise (Framing.Traced { trace_id = 1; parent_span = -2; frame = inner });
  (* a traced frame whose body is too short for the context is an error *)
  match Framing.decode ("\x06" ^ String.make 4 '\x00' ^ "\x08\x00\x00\x00" ^ String.make 8 '\x00') with
  | Ok _ -> Alcotest.fail "accepted a context-truncated traced frame"
  | Error (`Frame _) -> ()
  | Error e -> Alcotest.failf "expected a `Frame error, got: %s" (Pbio.Err.to_string e)

(* A stack of [depth] envelopes of one [kind] around a Data frame, built
   byte by byte since [Framing.encode] refuses to nest them; [prefix] is
   the envelope body's fixed part (16 bytes of context for Traced). *)
let nested_envelopes ~kind ~prefix depth =
  let leaf = Framing.encode (Framing.Data { format_id = 1; message = "x" }) in
  let level = 9 + prefix in
  let b = Buffer.create (String.length leaf + (depth * level)) in
  for k = depth downto 1 do
    Buffer.add_char b kind;
    Buffer.add_int32_le b 0l;
    Buffer.add_int32_le b (Int32.of_int (String.length leaf + (k * level) - 9));
    Buffer.add_string b (String.make prefix '\x00')
  done;
  Buffer.add_string b leaf;
  Buffer.contents b

let test_framing_nested_envelopes () =
  (* an envelope reads its inner frame's kind byte before decoding it, so
     a hostile stack fails at its second level: no copy per level *)
  List.iter
    (fun (name, kind, prefix, depth, want) ->
       let frame = nested_envelopes ~kind ~prefix depth in
       let before = Gc.allocated_bytes () in
       let got = Framing.decode frame in
       let allocated = Gc.allocated_bytes () -. before in
       (match got with
        | Error (`Frame msg) -> Alcotest.(check string) name want msg
        | Ok _ -> Alcotest.failf "%s: decoded" name
        | Error e -> Alcotest.failf "%s: %s" name (Pbio.Err.to_string e));
       Alcotest.(check bool)
         (Fmt.str "%s (%d B): %.0f B allocated, under 1 MB" name (String.length frame)
            allocated)
         true (allocated < 1e6))
    [ ("4,000 nested Traced", '\x06', 16, 4_000, "nested traced envelope");
      ("11,000 nested Reliable", '\x05', 0, 11_000, "nested reliable envelope") ]

(* --- connection protocol ---------------------------------------------------------- *)

let fmt = Ptype_dsl.format_of_string_exn "format Ping { int seq; string tag; }"

let ping seq = Value.record [ ("seq", Value.Int seq); ("tag", Value.String "t") ]

let setup () =
  let net = Netsim.create () in
  let a = Conn.create net (Contact.make "a" 1) in
  let b = Conn.create net (Contact.make "b" 2) in
  (net, a, b)

let test_conn_meta_sent_once () =
  let net, a, b = setup () in
  let got = ref [] in
  Conn.set_handler b (fun ~src:_ _meta v -> got := v :: !got);
  for i = 1 to 5 do
    Conn.send a ~dst:(Contact.make "b" 2) (Meta.plain fmt) (ping i)
  done;
  ignore (Netsim.run net);
  Alcotest.(check int) "all delivered" 5 (List.length !got);
  (* 1 meta + 5 data *)
  Alcotest.(check int) "meta pushed once" 6 (Netsim.stats net).Netsim.messages;
  Alcotest.(check int) "peer learned one format" 1 (Conn.known_peer_formats b)

let test_conn_meta_carries_xforms () =
  let net, a, b = setup () in
  let seen = ref None in
  Conn.set_handler b (fun ~src:_ meta _ -> seen := Some meta);
  Conn.send a ~dst:(Contact.make "b" 2) Helpers.response_v2_meta (Helpers.sample_v2 2);
  ignore (Netsim.run net);
  match !seen with
  | Some meta ->
    Alcotest.(check int) "transformation shipped" 1 (List.length meta.Meta.xforms)
  | None -> Alcotest.fail "no message seen"

let test_conn_recovery_via_meta_request () =
  let net, a, b = setup () in
  let got = ref 0 in
  Conn.set_handler b (fun ~src:_ _ _ -> incr got);
  let dst = Contact.make "b" 2 in
  Conn.send a ~dst (Meta.plain fmt) (ping 1);
  ignore (Netsim.run net);
  Alcotest.(check int) "first delivered" 1 !got;
  (* the receiver loses its soft state; the sender won't re-announce *)
  Conn.forget_peer_formats b;
  Conn.send a ~dst (Meta.plain fmt) (ping 2);
  Conn.send a ~dst (Meta.plain fmt) (ping 3);
  ignore (Netsim.run net);
  (* both parked messages flush, in order, after one Meta_request *)
  Alcotest.(check int) "recovered" 3 !got

(* A meta push over [Meta.max_bytes] teaches the endpoint nothing; one
   at the cap is learned. *)
let test_conn_refuses_oversize_meta () =
  let net, _a, b = setup () in
  let push n =
    Netsim.send net ~src:(Contact.make "a" 1) ~dst:(Contact.make "b" 2)
      (Framing.encode
         (Framing.Meta { format_id = n; meta = Meta.encode (Helpers.meta_of_size n) }));
    ignore (Netsim.run net)
  in
  push (Meta.max_bytes + 1);
  Alcotest.(check int) "over the cap: not learned" 0 (Conn.known_peer_formats b);
  push Meta.max_bytes;
  Alcotest.(check int) "at the cap: learned" 1 (Conn.known_peer_formats b)

let test_conn_multiple_formats_and_peers () =
  let net = Netsim.create () in
  let a = Conn.create net (Contact.make "a" 1) in
  let b = Conn.create net (Contact.make "b" 2) in
  let c = Conn.create net (Contact.make "c" 3) in
  let got_b = ref 0 and got_c = ref 0 in
  Conn.set_handler b (fun ~src:_ _ _ -> incr got_b);
  Conn.set_handler c (fun ~src:_ _ _ -> incr got_c);
  let other = Ptype_dsl.format_of_string_exn "format Pong { float x; }" in
  Conn.send a ~dst:(Contact.make "b" 2) (Meta.plain fmt) (ping 1);
  Conn.send a ~dst:(Contact.make "c" 3) (Meta.plain fmt) (ping 2);
  Conn.send a ~dst:(Contact.make "b" 2) (Meta.plain other)
    (Value.record [ ("x", Value.Float 1.5) ]);
  ignore (Netsim.run net);
  Alcotest.(check int) "b got both formats" 2 !got_b;
  Alcotest.(check int) "c got one" 1 !got_c;
  Alcotest.(check int) "b knows 2 formats" 2 (Conn.known_peer_formats b);
  Alcotest.(check int) "c knows 1 format" 1 (Conn.known_peer_formats c)

let test_conn_big_endian_sender () =
  let net = Netsim.create () in
  let a = Conn.create ~endian:Wire.Big net (Contact.make "a" 1) in
  let b = Conn.create net (Contact.make "b" 2) in
  ignore a;
  let got = ref [] in
  Conn.set_handler b (fun ~src:_ _ v -> got := v :: !got);
  Conn.send a ~dst:(Contact.make "b" 2) (Meta.plain fmt) (ping 9);
  ignore (Netsim.run net);
  Alcotest.(check int) "byte-swapped correctly" 9
    (Value.to_int (Value.get_field (List.hd !got) "seq"))

let test_conn_survives_corruption () =
  (* a faulty link flipping bytes must not take the endpoint down; clean
     messages keep flowing once the fault clears *)
  let net = Netsim.create () in
  let a = Conn.create net (Contact.make "a" 1) in
  let b = Conn.create net (Contact.make "b" 2) in
  let got = ref 0 in
  Conn.set_handler b (fun ~src:_ _ _ -> incr got);
  let dst = Contact.make "b" 2 in
  (* establish the format first so corruption hits Data frames *)
  Conn.send a ~dst (Meta.plain fmt) (ping 0);
  ignore (Netsim.run net);
  Alcotest.(check int) "clean delivery" 1 !got;
  (* truncate every payload: frames arrive malformed *)
  Netsim.set_corruption net
    (Some (fun payload -> String.sub payload 0 (String.length payload - 1)));
  for i = 1 to 5 do
    Conn.send a ~dst (Meta.plain fmt) (ping i)
  done;
  ignore (Netsim.run net);
  (* corrupted messages were dropped, not crashed on *)
  Alcotest.(check int) "corrupted messages dropped" 1 !got;
  Netsim.set_corruption net None;
  Conn.send a ~dst (Meta.plain fmt) (ping 99);
  ignore (Netsim.run net);
  Alcotest.(check int) "healthy again" 2 !got

let test_conn_mid_stream_link_drop () =
  (* the link fails after the stream is established: in-flight traffic is
     lost, both endpoints stay up, and the stream resumes once the link is
     repaired — without re-announcing meta-data *)
  let net, a, b = setup () in
  let got = ref 0 in
  Conn.set_handler b (fun ~src:_ _ _ -> incr got);
  let src = Contact.make "a" 1 and dst = Contact.make "b" 2 in
  Conn.send a ~dst (Meta.plain fmt) (ping 1);
  ignore (Netsim.run net);
  Alcotest.(check int) "established" 1 !got;
  let t0 = Netsim.now net in
  Netsim.add_partition net ~group_a:[ src ] ~group_b:[ dst ] ~start:t0 ~stop:(t0 +. 1.0);
  Conn.send a ~dst (Meta.plain fmt) (ping 2);
  Conn.send a ~dst (Meta.plain fmt) (ping 3);
  ignore (Netsim.run net);
  Alcotest.(check int) "nothing crosses a down link" 1 !got;
  ignore (Netsim.advance net 1.0 : int);
  Conn.send a ~dst (Meta.plain fmt) (ping 4);
  ignore (Netsim.run net);
  Alcotest.(check int) "stream resumes after repair" 2 !got;
  Alcotest.(check int) "no second meta push" 1 (Conn.known_peer_formats b)

let test_conn_meta_lost_in_flight () =
  (* the meta announcement itself is destroyed mid-stream; the following
     Data frame arrives for an unknown format, triggering the Meta_request
     recovery path, after which the parked message is delivered *)
  let net, a, b = setup () in
  let got = ref 0 in
  Conn.set_handler b (fun ~src:_ _ _ -> incr got);
  let dst = Contact.make "b" 2 in
  let first = ref true in
  Netsim.set_corruption net
    (Some (fun payload -> if !first then (first := false; "\xff" ^ payload) else payload));
  Conn.send a ~dst (Meta.plain fmt) (ping 1);
  ignore (Netsim.run net);
  Alcotest.(check int) "recovered via meta request" 1 !got;
  Alcotest.(check int) "format learned on the retry" 1 (Conn.known_peer_formats b)

(* Reliable composes *around* Traced: the stored retransmission bytes
   replay the original Traced envelope byte for byte, so a frame that only
   gets through after a timed partition heals still carries the trace ids
   it was born with, and the receive-side span parents correctly across
   the gap. *)
let test_reliable_traced_partition () =
  let net = Netsim.create () in
  let ca = Contact.make "a" 1 and cb = Contact.make "b" 2 in
  let reg_a = Obs.create ~label:"a" () and reg_b = Obs.create ~label:"b" () in
  Obs.set_registry_clock reg_a (fun () -> Netsim.now net *. 1e9);
  Obs.set_registry_clock reg_b (fun () -> Netsim.now net *. 1e9);
  let a = Conn.create ~reliable:true ~metrics:reg_a net ca in
  let b = Conn.create ~reliable:true ~metrics:reg_b net cb in
  let got = ref [] in
  Conn.set_handler b (fun ~src:_ _meta v -> got := v :: !got);
  (* every link a<->b is dead until t = 0.05: the first transmission and
     the early retransmits (5, 15, 35 ms) all drop *)
  Netsim.add_partition net ~group_a:[ ca ] ~group_b:[ cb ] ~start:0.0 ~stop:0.05;
  Obs.Trace.with_span reg_a "app.send" (fun () ->
      Conn.send a ~dst:cb (Meta.plain fmt) (ping 7));
  ignore (Netsim.run net);
  Alcotest.(check int) "delivered exactly once after heal" 1 (List.length !got);
  (match !got with
   | [ v ] -> Alcotest.(check int) "payload intact" 7
       (Value.to_int (Value.get_field v "seq"))
   | _ -> ());
  Alcotest.(check bool) "retransmits happened" true
    ((Conn.stats a).Conn.retransmits > 0);
  Alcotest.(check bool) "healed only after the partition window" true
    (Netsim.now net >= 0.05);
  (* trace continuity: sender and receiver spans share one trace id *)
  let root =
    match
      List.find_opt
        (fun s -> s.Obs.Trace.name = "app.send")
        (Obs.Trace.spans reg_a)
    with
    | Some s -> s
    | None -> Alcotest.fail "sender recorded no app.send span"
  in
  let delivers =
    List.filter
      (fun s -> s.Obs.Trace.name = "conn.deliver")
      (Obs.Trace.spans reg_b)
  in
  Alcotest.(check bool) "receiver recorded deliveries" true (delivers <> []);
  (* Conn.send opens its own conn.send span under app.send; the wire ctx
     the receiver parents on is whichever sender-side span was ambient *)
  let sender_span_ids =
    List.filter_map
      (fun s ->
         if s.Obs.Trace.trace_id = root.Obs.Trace.trace_id then
           Some s.Obs.Trace.span_id
         else None)
      (Obs.Trace.spans reg_a)
  in
  List.iter
    (fun s ->
       Alcotest.(check int) "deliver keeps the sender's trace id"
         root.Obs.Trace.trace_id s.Obs.Trace.trace_id;
       Alcotest.(check bool) "deliver parents on a sender-side span" true
         (match s.Obs.Trace.parent_id with
          | Some p -> List.mem p sender_span_ids
          | None -> false))
    delivers;
  (* the retransmitted hops replay the original trace context *)
  let retransmit_hops =
    List.filter
      (fun s ->
         s.Obs.Trace.name = "net.hop"
         && List.mem_assoc "retransmit" s.Obs.Trace.attrs)
      (Obs.Trace.spans reg_a)
  in
  Alcotest.(check bool) "retransmit hops were traced" true
    (retransmit_hops <> []);
  List.iter
    (fun s ->
       Alcotest.(check int) "retransmit hop keeps the trace id"
         root.Obs.Trace.trace_id s.Obs.Trace.trace_id)
    retransmit_hops;
  (* assembled across both registries: one trace, deliveries nested under
     the sender's root, no orphans *)
  match Obs.Trace.assemble (Obs.Trace.spans reg_a @ Obs.Trace.spans reg_b) with
  | [ tr ] ->
    Alcotest.(check int) "single trace id" root.Obs.Trace.trace_id tr.Obs.Trace.id;
    Alcotest.(check (list string)) "no orphaned spans" []
      (List.map (fun s -> s.Obs.Trace.name) tr.Obs.Trace.orphans);
    Alcotest.(check int) "one root" 1 (List.length tr.Obs.Trace.roots)
  | l -> Alcotest.failf "expected one assembled trace, got %d" (List.length l)

(* Retry-backoff determinism: the retransmit schedule is a pure function
   of the seed.  Two identically-seeded runs under loss plus a timed
   partition must deliver the same records at the same simulated times,
   with the same connection and network counters, or seeded soak results
   could not be replayed for debugging. *)
let retransmit_schedule ~seed () : (float * int) list * Conn.stats * Netsim.stats =
  let net = Netsim.create ~seed () in
  let dst_c = Contact.make "b" 2 in
  let src_c = Contact.make "a" 1 in
  Netsim.set_faults net
    { Netsim.loss = 0.25; duplication = 0.05; reorder = 0.1; jitter_s = 0.0005 };
  Netsim.add_partition net ~group_a:[ src_c ] ~group_b:[ dst_c ] ~start:0.01
    ~stop:0.03;
  let a = Conn.create ~reliable:true net src_c in
  let b = Conn.create ~reliable:true net dst_c in
  let got = ref [] in
  Conn.set_handler b (fun ~src:_ _ v ->
      got := (Netsim.now net, Value.to_int (Value.get_field v "seq")) :: !got);
  for i = 1 to 20 do
    Netsim.after net (float_of_int i *. 0.003) (fun () ->
        Conn.send a ~dst:dst_c (Meta.plain fmt) (ping i))
  done;
  ignore (Netsim.run net);
  (List.rev !got, Conn.stats a, Netsim.stats net)

let test_conn_retransmit_determinism () =
  let got1, stats1, net1 = retransmit_schedule ~seed:97 () in
  let got2, stats2, net2 = retransmit_schedule ~seed:97 () in
  (* loss + the partition force real retransmits, so the comparison has
     teeth *)
  Alcotest.(check bool) "retransmits happened" true (stats1.Conn.retransmits > 0);
  Alcotest.(check bool) "something was lost" true (Netsim.dropped net1 > 0);
  Alcotest.(check int) "all 20 delivered" 20 (List.length got1);
  Alcotest.(check (list (pair (float 0.0) int))) "identical delivery schedules" got1 got2;
  Alcotest.(check bool) "same connection stats" true (stats1 = stats2);
  Alcotest.(check bool) "same network stats" true (net1 = net2);
  (* a different seed must not reproduce the schedule (it really depends
     on the seed, not just the config) *)
  let got3, _, _ = retransmit_schedule ~seed:98 () in
  Alcotest.(check bool) "different seed, different schedule" false (got1 = got3)

let suite =
  [
    Alcotest.test_case "contact parse/print" `Quick test_contact;
    Alcotest.test_case "pqueue ordering" `Quick test_pqueue_ordering;
    Alcotest.test_case "pqueue releases popped entries" `Quick
      test_pqueue_releases_popped;
    Helpers.qtest prop_pqueue_sorted;
    Helpers.qtest prop_pqueue_interleaved;
    Alcotest.test_case "netsim: delivery and latency" `Quick test_netsim_delivery_and_latency;
    Alcotest.test_case "netsim: fifo per link" `Quick test_netsim_ordering;
    Alcotest.test_case "netsim: drops and link failure" `Quick test_netsim_drops;
    Alcotest.test_case "netsim: duplicate node" `Quick test_netsim_duplicate_node;
    Alcotest.test_case "netsim: cascading handlers" `Quick test_netsim_cascading;
    Alcotest.test_case "netsim: send_arrival reports the arrival or a drop" `Quick
      test_netsim_send_arrival;
    Alcotest.test_case "netsim: delivered frames and fired timers are released" `Quick
      test_netsim_releases_delivered;
    Alcotest.test_case "framing roundtrip" `Quick test_framing_roundtrip;
    Alcotest.test_case "framing errors" `Quick test_framing_errors;
    Alcotest.test_case "framing: truncated frames are errors" `Quick
      test_framing_decode_result;
    Alcotest.test_case "framing: garbage kind bytes" `Quick test_framing_garbage_kinds;
    Alcotest.test_case "framing: envelopes decode in place" `Quick
      test_framing_envelopes_in_place;
    Alcotest.test_case "framing: traced envelope" `Quick test_framing_traced;
    Alcotest.test_case "conn: meta pushed once" `Quick test_conn_meta_sent_once;
    Alcotest.test_case "conn: meta carries transformations" `Quick
      test_conn_meta_carries_xforms;
    Alcotest.test_case "conn: recovery via meta request" `Quick
      test_conn_recovery_via_meta_request;
    Alcotest.test_case "conn: multiple formats and peers" `Quick
      test_conn_multiple_formats_and_peers;
    Alcotest.test_case "conn: a meta over the size cap is refused" `Quick
      test_conn_refuses_oversize_meta;
    Alcotest.test_case "conn: big-endian sender" `Quick test_conn_big_endian_sender;
    Alcotest.test_case "conn: survives corrupted frames" `Quick
      test_conn_survives_corruption;
    Alcotest.test_case "conn: mid-stream link drop" `Quick test_conn_mid_stream_link_drop;
    Alcotest.test_case "conn: meta lost in flight" `Quick test_conn_meta_lost_in_flight;
    Alcotest.test_case "conn: reliable around traced across a timed partition"
      `Quick test_reliable_traced_partition;
    Alcotest.test_case "conn: retransmit schedule is seed-deterministic" `Quick
      test_conn_retransmit_determinism;
    Alcotest.test_case "framing: nested envelopes fail at the second level" `Quick
      test_framing_nested_envelopes;
  ]
