(* Tests for the lossy-network fault model and the machinery that survives
   it: seeded faults, virtual-clock timers and timed partitions in
   Netsim; the reliable envelope, Meta_request backoff,
   bounded parking and peer-failure detection in Conn; dead-sink eviction
   in ECho. *)

open Pbio
module Contact = Transport.Contact
module Netsim = Transport.Netsim
module Framing = Transport.Framing
module Conn = Transport.Conn

let fmt = Ptype_dsl.format_of_string_exn "format Ping { int seq; string tag; }"
let ping seq = Value.record [ ("seq", Value.Int seq); ("tag", Value.String "t") ]
let seq_of v = Value.to_int (Value.get_field v "seq")

(* --- framing: the reliability envelope ------------------------------------- *)

let test_framing_envelope_roundtrip () =
  let frames =
    [
      Framing.Ack { seq = 0 };
      Framing.Ack { seq = 12345 };
      Framing.Reliable { seq = 7; frame = Framing.Data { format_id = 3; message = "xyz" } };
      Framing.Reliable { seq = 0; frame = Framing.Meta { format_id = 1; meta = "m" } };
      Framing.Reliable { seq = 9; frame = Framing.Meta_request { format_id = 2 } };
    ]
  in
  List.iter
    (fun f ->
       let f' = Helpers.check_ok_err (Framing.decode (Framing.encode f)) in
       Alcotest.(check bool) "roundtrip" true (f = f'))
    frames

let test_framing_envelope_errors () =
  (* nesting Reliable or Ack inside an envelope is a protocol error *)
  List.iter
    (fun inner ->
       try
         ignore (Framing.encode (Framing.Reliable { seq = 1; frame = inner }));
         Alcotest.fail "expected Frame_error on nesting"
       with Framing.Frame_error _ -> ())
    [ Framing.Ack { seq = 2 };
      Framing.Reliable { seq = 3; frame = Framing.Meta_request { format_id = 1 } } ];
  let expect_err s =
    match Framing.decode s with
    | Ok _ -> Alcotest.fail "expected decode error"
    | Error _ -> ()
  in
  (* an ack must carry an empty body *)
  expect_err ("\x04\x01\x00\x00\x00\x01\x00\x00\x00" ^ "x");
  (* negative sequence numbers are rejected *)
  expect_err "\x04\xff\xff\xff\xff\x00\x00\x00\x00";
  expect_err ("\x05\xff\xff\xff\xff\x09\x00\x00\x00" ^ Framing.encode (Framing.Meta_request { format_id = 1 }));
  (* a crafted nested envelope on the wire is rejected too *)
  let nested_bytes =
    let inner = Framing.encode (Framing.Ack { seq = 1 }) in
    let buf = Buffer.create 32 in
    Buffer.add_char buf '\x05';
    Buffer.add_int32_le buf 2l;
    Buffer.add_int32_le buf (Int32.of_int (String.length inner));
    Buffer.add_string buf inner;
    Buffer.contents buf
  in
  expect_err nested_bytes

(* --- netsim: probabilistic faults ------------------------------------------- *)

let pair net =
  let a = Contact.make "a" 1 and b = Contact.make "b" 2 in
  let got = ref [] in
  Netsim.add_node net a (fun ~src:_ _ -> ());
  Netsim.add_node net b (fun ~src:_ payload -> got := payload :: !got);
  (a, b, got)

let test_netsim_total_loss () =
  let net = Netsim.create ~seed:1 () in
  let a, b, got = pair net in
  Netsim.set_faults net { Netsim.no_faults with Netsim.loss = 1.0 };
  for _ = 1 to 10 do Netsim.send net ~src:a ~dst:b "x" done;
  ignore (Netsim.run net);
  Alcotest.(check int) "nothing delivered" 0 (List.length !got);
  Alcotest.(check int) "all counted as injected loss" 10
    (Netsim.stats net).Netsim.drops_loss

let test_netsim_loss_is_seeded () =
  let run seed =
    let net = Netsim.create ~seed () in
    let a, b, _ = pair net in
    Netsim.set_faults net { Netsim.no_faults with Netsim.loss = 0.5 };
    for _ = 1 to 100 do Netsim.send net ~src:a ~dst:b "x" done;
    ignore (Netsim.run net);
    (Netsim.stats net).Netsim.drops_loss
  in
  let d1 = run 7 and d2 = run 7 and d3 = run 8 in
  Alcotest.(check int) "same seed, same drops" d1 d2;
  Alcotest.(check bool) "roughly half lost" true (d1 > 20 && d1 < 80);
  Alcotest.(check bool) "different seed, different trace" true (d1 <> d3 || d1 = d3)
  (* the last check only documents that seeds are independent; equality by
     coincidence is fine *)

let test_netsim_drop_metrics () =
  (* a metrics-enabled simulator mirrors its drop accounting into the
     labeled [netsim.drops] family, one series per drop reason *)
  let metrics = Obs.create () in
  let net = Netsim.create ~seed:1 ~metrics () in
  let a, b, _ = pair net in
  Netsim.set_faults net { Netsim.no_faults with Netsim.loss = 1.0 };
  for _ = 1 to 10 do Netsim.send net ~src:a ~dst:b "x" done;
  (* also provoke an unknown-destination drop *)
  Netsim.send net ~src:a ~dst:(Contact.make "ghost" 9) "x";
  ignore (Netsim.run net);
  Alcotest.(check int) "loss drops counted" 10
    (Obs.Counter.value metrics "netsim.drops{reason=\"loss\"}");
  Alcotest.(check int) "unknown destination counted" 1
    (Obs.Counter.value metrics "netsim.drops{reason=\"unknown_dst\"}");
  Alcotest.(check int) "nothing delivered" 0
    (Obs.Counter.value metrics "netsim.delivered");
  (* the Obs counter agrees with the stats record *)
  Alcotest.(check int) "stats agree" (Netsim.stats net).Netsim.drops_loss
    (Obs.Counter.value metrics "netsim.drops{reason=\"loss\"}")

let test_netsim_duplication () =
  let net = Netsim.create ~seed:2 () in
  let a, b, got = pair net in
  Netsim.set_faults net { Netsim.no_faults with Netsim.duplication = 1.0 };
  for i = 1 to 5 do Netsim.send net ~src:a ~dst:b (string_of_int i) done;
  ignore (Netsim.run net);
  Alcotest.(check int) "every frame arrives twice" 10 (List.length !got);
  Alcotest.(check int) "duplications counted" 5 (Netsim.stats net).Netsim.duplicated

let test_netsim_reordering () =
  let net = Netsim.create ~seed:3 () in
  let a, b, got = pair net in
  Netsim.set_faults net { Netsim.no_faults with Netsim.reorder = 0.5 };
  let sent = List.init 30 (fun i -> string_of_int i) in
  List.iter (fun p -> Netsim.send net ~src:a ~dst:b p) sent;
  ignore (Netsim.run net);
  let received = List.rev !got in
  Alcotest.(check int) "all delivered" 30 (List.length received);
  Alcotest.(check bool) "out of order" true (received <> sent);
  Alcotest.(check bool) "same multiset" true
    (List.sort compare received = List.sort compare sent)

let test_netsim_jitter () =
  let config = { Netsim.latency_s = 0.001; bandwidth_bytes_per_s = infinity } in
  let net = Netsim.create ~config ~seed:4 () in
  let a, b, got = pair net in
  Netsim.set_faults net { Netsim.no_faults with Netsim.jitter_s = 0.05 };
  Netsim.send net ~src:a ~dst:b "x";
  ignore (Netsim.run net);
  Alcotest.(check int) "delivered" 1 (List.length !got);
  Alcotest.(check bool) "jitter added latency" true (Netsim.now net > 0.001)

(* The fault profile is one network-wide setting, decided per frame at
   send time: installing a profile replaces the previous one outright, and
   going back to [no_faults] restores clean links. *)
let test_netsim_fault_profile_replaced () =
  let net = Netsim.create ~seed:5 () in
  let a, b, got = pair net in
  Netsim.set_faults net { Netsim.no_faults with Netsim.loss = 1.0 };
  for _ = 1 to 5 do Netsim.send net ~src:a ~dst:b "lost" done;
  Netsim.set_faults net { Netsim.no_faults with Netsim.duplication = 1.0 };
  Netsim.send net ~src:a ~dst:b "twice";
  Netsim.set_faults net Netsim.no_faults;
  Netsim.send net ~src:a ~dst:b "once";
  ignore (Netsim.run net);
  Alcotest.(check (list string)) "each frame under the profile it was sent with"
    [ "once"; "twice"; "twice" ] !got;
  let s = Netsim.stats net in
  Alcotest.(check int) "losses" 5 s.Netsim.drops_loss;
  Alcotest.(check int) "the duplication profile no longer applies" 1 s.Netsim.duplicated

(* A metrics-enabled simulator mirrors deliveries, bytes, duplicates,
   partition drops and fired timers, and agrees with its stats record. *)
let test_netsim_metrics_mirror_stats () =
  let metrics = Obs.create () in
  let net = Netsim.create ~seed:2 ~metrics () in
  let a, b, _ = pair net in
  Netsim.set_faults net { Netsim.no_faults with Netsim.duplication = 1.0 };
  Netsim.send net ~src:a ~dst:b "abc";
  Netsim.set_faults net Netsim.no_faults;
  Netsim.send net ~src:a ~dst:b "de";
  Netsim.add_partition net ~group_a:[ a ] ~group_b:[ b ] ~start:0.0 ~stop:1.0;
  Netsim.send net ~src:a ~dst:b "cut";
  Netsim.after net 0.001 (fun () -> ());
  Netsim.after net 0.002 (fun () -> ());
  ignore (Netsim.run net);
  let s = Netsim.stats net in
  let counter = Obs.Counter.value metrics in
  Alcotest.(check int) "delivered" 3 s.Netsim.messages;
  Alcotest.(check int) "delivered mirrored" s.Netsim.messages (counter "netsim.delivered");
  Alcotest.(check int) "bytes" 8 s.Netsim.bytes;
  Alcotest.(check int) "bytes mirrored" s.Netsim.bytes (counter "netsim.bytes");
  Alcotest.(check int) "duplicates mirrored" 1 (counter "netsim.duplicated");
  Alcotest.(check int) "partition drop mirrored" s.Netsim.drops_link_down
    (counter {|netsim.drops{reason="link_down"}|});
  Alcotest.(check int) "one partition drop" 1 s.Netsim.drops_link_down;
  Alcotest.(check int) "timers fired" 2 (counter "netsim.timers_fired")

(* --- netsim: timers, advance, partitions ------------------------------------ *)

let test_netsim_timers_and_advance () =
  let net = Netsim.create () in
  let fired = ref [] in
  Netsim.after net 0.010 (fun () -> fired := "slow" :: !fired);
  Netsim.after net 0.002 (fun () -> fired := "fast" :: !fired);
  let n = Netsim.advance net 0.005 in
  Alcotest.(check int) "one timer due" 1 n;
  Alcotest.(check (list string)) "fast fired" [ "fast" ] !fired;
  Alcotest.(check (float 1e-9)) "clock moved exactly" 0.005 (Netsim.now net);
  ignore (Netsim.advance net 0.005);
  Alcotest.(check (list string)) "slow fired" [ "slow"; "fast" ] !fired;
  (* a timer can re-arm itself: the run drains the chain *)
  let ticks = ref 0 in
  let rec tick () =
    incr ticks;
    if !ticks < 3 then Netsim.after net 0.001 tick
  in
  Netsim.after net 0.001 tick;
  ignore (Netsim.run net);
  Alcotest.(check int) "chain of three" 3 !ticks

let test_netsim_run_max_steps () =
  let net = Netsim.create () in
  let a = Contact.make "a" 1 and b = Contact.make "b" 2 in
  Netsim.add_node net a (fun ~src:_ p -> Netsim.send net ~src:a ~dst:b p);
  Netsim.add_node net b (fun ~src:_ p -> Netsim.send net ~src:b ~dst:a p);
  Netsim.send net ~src:a ~dst:b "forever";
  let r = Netsim.run ~max_steps:50 net in
  Alcotest.(check int) "stopped at the cap" 50 r.Netsim.steps;
  Alcotest.(check bool) "did not quiesce" false r.Netsim.quiesced

let test_netsim_partition () =
  let net = Netsim.create () in
  let a, b, got = pair net in
  Netsim.add_partition net ~group_a:[ a ] ~group_b:[ b ] ~start:0.0 ~stop:1.0;
  Netsim.send net ~src:a ~dst:b "during";
  Netsim.send net ~src:b ~dst:a "both directions";
  ignore (Netsim.run net);
  Alcotest.(check int) "nothing crosses" 0 (List.length !got);
  Alcotest.(check int) "counted as link down" 2
    (Netsim.stats net).Netsim.drops_link_down;
  (* after the window closes the partition heals *)
  ignore (Netsim.advance net 2.0);
  Netsim.send net ~src:a ~dst:b "after";
  ignore (Netsim.run net);
  Alcotest.(check (list string)) "healed" [ "after" ] !got

(* A partition cuts only the links between its two groups: nodes on the
   same side, and nodes in neither group, still reach each other. *)
let test_netsim_partition_spares_other_links () =
  let net = Netsim.create () in
  let a, b, got_b = pair net in
  let c = Contact.make "c" 3 and d = Contact.make "d" 4 in
  let got_c = ref [] in
  Netsim.add_node net c (fun ~src:_ p -> got_c := p :: !got_c);
  Netsim.add_node net d (fun ~src:_ _ -> ());
  Netsim.add_partition net ~group_a:[ a; c ] ~group_b:[ b ] ~start:0.0 ~stop:1.0;
  Netsim.send net ~src:a ~dst:b "a->b";
  Netsim.send net ~src:c ~dst:b "c->b";
  Netsim.send net ~src:b ~dst:c "b->c";
  Netsim.send net ~src:a ~dst:c "a->c";
  Netsim.send net ~src:d ~dst:b "d->b";
  ignore (Netsim.run net);
  Alcotest.(check (list string)) "only the outsider reaches b" [ "d->b" ] !got_b;
  Alcotest.(check (list string)) "same side still connected" [ "a->c" ] !got_c;
  Alcotest.(check int) "three links cut" 3 (Netsim.stats net).Netsim.drops_link_down

(* Whether a frame crosses is decided when it is sent: a frame already on
   the wire when the window opens still arrives inside it, and one sent
   inside the window is lost even though it would land after it closes. *)
let test_netsim_partition_decided_at_send () =
  let config = { Netsim.latency_s = 0.15; bandwidth_bytes_per_s = infinity } in
  let net = Netsim.create ~config () in
  let a, b, got = pair net in
  Netsim.add_partition net ~group_a:[ a ] ~group_b:[ b ] ~start:0.1 ~stop:0.2;
  Netsim.send net ~src:a ~dst:b "before";
  Alcotest.(check int) "nothing due yet" 0 (Netsim.advance net 0.12);
  Netsim.send net ~src:a ~dst:b "inside";
  ignore (Netsim.run net);
  Alcotest.(check (list string)) "the frame sent before the window lands" [ "before" ] !got;
  Alcotest.(check (float 1e-9)) "it landed inside the window" 0.15 (Netsim.now net);
  Alcotest.(check int) "the frame sent inside is dropped" 1
    (Netsim.stats net).Netsim.drops_link_down

(* --- conn: Meta_request retry with backoff ---------------------------------- *)

let setup () =
  let net = Netsim.create ~seed:11 () in
  let a = Conn.create net (Contact.make "a" 1) in
  let b = Conn.create net (Contact.make "b" 2) in
  (net, a, b)

(* Corrupt the next [n] frames whose kind byte is [kind] so they are
   dropped by the receiving endpoint's frame decoder. *)
let kill_frames net ~kind n =
  let left = ref n in
  Netsim.set_corruption net
    (Some
       (fun payload ->
          if !left > 0 && String.length payload > 0 && payload.[0] = kind then begin
            decr left;
            "\xee corrupted"
          end
          else payload))

let test_conn_meta_reply_lost_then_retried () =
  let net, a, b = setup () in
  let got = ref [] in
  Conn.set_handler b (fun ~src:_ _ v -> got := seq_of v :: !got);
  let dst = Contact.make "b" 2 in
  Conn.send a ~dst (Meta.plain fmt) (ping 0);
  ignore (Netsim.run net);
  Alcotest.(check (list int)) "established" [ 0 ] !got;
  (* the receiver loses its soft state; the sender won't re-announce, so
     recovery rides on Meta_request — whose first reply we destroy *)
  Conn.forget_peer_formats b;
  kill_frames net ~kind:'\x01' 1;
  Conn.send a ~dst (Meta.plain fmt) (ping 1);
  Conn.send a ~dst (Meta.plain fmt) (ping 2);
  ignore (Netsim.run net);
  Alcotest.(check (list int)) "parked messages flushed in order" [ 2; 1; 0 ] !got;
  let s = Conn.stats b in
  Alcotest.(check bool) "took at least one backed-off retry" true
    (s.Conn.meta_retries >= 1);
  Alcotest.(check bool) "requested more than once" true (s.Conn.meta_requests >= 2);
  Alcotest.(check int) "nothing left parked" 0 (Conn.parked_messages b)

let test_conn_meta_retry_gives_up () =
  let net, a, b = setup () in
  let got = ref 0 in
  Conn.set_handler b (fun ~src:_ _ _ -> incr got);
  let dst = Contact.make "b" 2 in
  Conn.send a ~dst (Meta.plain fmt) (ping 0);
  ignore (Netsim.run net);
  Conn.forget_peer_formats b;
  (* every meta reply dies: the retry budget (8 requests, 0.01 s doubling
     to 0.5 s, in virtual time) runs out and the parked messages are
     dropped, not leaked *)
  kill_frames net ~kind:'\x01' max_int;
  Conn.send a ~dst (Meta.plain fmt) (ping 1);
  Conn.send a ~dst (Meta.plain fmt) (ping 2);
  ignore (Netsim.run net);
  Alcotest.(check int) "only the pre-fault record arrived" 1 !got;
  let s = Conn.stats b in
  Alcotest.(check int) "gave up after the budget" 8 s.Conn.meta_requests;
  Alcotest.(check int) "parked messages dropped" 2 s.Conn.parked_dropped;
  Alcotest.(check int) "queue emptied" 0 (Conn.parked_messages b)

let test_conn_parked_queue_bounded () =
  let net, a, b = setup () in
  let got = ref [] in
  Conn.set_handler b (fun ~src:_ _ v -> got := seq_of v :: !got);
  let dst = Contact.make "b" 2 in
  Conn.send a ~dst (Meta.plain fmt) (ping 0);
  ignore (Netsim.run net);
  Conn.forget_peer_formats b;
  got := [];
  (* meta replies die while 69 records arrive: the 64-slot queue keeps
     only the newest 64, evicting oldest-first *)
  kill_frames net ~kind:'\x01' 2;
  for i = 1 to 69 do Conn.send a ~dst (Meta.plain fmt) (ping i) done;
  ignore (Netsim.run net);
  Alcotest.(check (list int)) "newest 64 survive, in order"
    (List.init 64 (fun i -> 69 - i))
    !got;
  Alcotest.(check int) "evictions counted" 5 (Conn.stats b).Conn.parked_evicted

(* --- conn: the reliable envelope -------------------------------------------- *)

let reliable_pair ?(seed = 21) () =
  let net = Netsim.create ~seed () in
  let a = Conn.create ~reliable:true net (Contact.make "a" 1) in
  let b = Conn.create net (Contact.make "b" 2) in
  (net, a, b)

let test_conn_reliable_survives_loss () =
  let net, a, b = reliable_pair () in
  let got = ref [] in
  Conn.set_handler b (fun ~src:_ _ v -> got := seq_of v :: !got);
  Netsim.set_faults net { Netsim.no_faults with Netsim.loss = 0.3 };
  let dst = Contact.make "b" 2 in
  for i = 1 to 20 do Conn.send a ~dst (Meta.plain fmt) (ping i) done;
  ignore (Netsim.run net);
  (* exactly-once, though retransmitted frames may arrive late and out of
     order relative to the originals *)
  Alcotest.(check (list int)) "every record exactly once"
    (List.init 20 (fun i -> i + 1))
    (List.sort compare !got);
  let s = Conn.stats a in
  Alcotest.(check bool) "retransmissions happened" true (s.Conn.retransmits > 0);
  Alcotest.(check int) "all frames acknowledged" 0 (Conn.unacked_frames a)

let test_conn_reliable_suppresses_duplicates () =
  let net, a, b = reliable_pair () in
  let got = ref [] in
  Conn.set_handler b (fun ~src:_ _ v -> got := seq_of v :: !got);
  Netsim.set_faults net { Netsim.no_faults with Netsim.duplication = 1.0 };
  let dst = Contact.make "b" 2 in
  for i = 1 to 10 do Conn.send a ~dst (Meta.plain fmt) (ping i) done;
  ignore (Netsim.run net);
  Alcotest.(check (list int)) "handler saw each record once"
    (List.init 10 (fun i -> 10 - i))
    !got;
  Alcotest.(check bool) "duplicates were suppressed" true
    ((Conn.stats b).Conn.duplicates_suppressed > 0)

let test_conn_reliable_survives_reordering () =
  let net, a, b = reliable_pair ~seed:5 () in
  let got = ref [] in
  Conn.set_handler b (fun ~src:_ _ v -> got := seq_of v :: !got);
  Netsim.set_faults net { Netsim.no_faults with Netsim.reorder = 0.4 };
  let dst = Contact.make "b" 2 in
  for i = 1 to 20 do Conn.send a ~dst (Meta.plain fmt) (ping i) done;
  ignore (Netsim.run net);
  Alcotest.(check (list int)) "each record exactly once"
    (List.init 20 (fun i -> i + 1))
    (List.sort compare !got)

let test_conn_reliable_peer_failure () =
  let net, a, b = reliable_pair () in
  ignore b;
  let failed = ref [] in
  Conn.set_on_peer_failure a (fun c -> failed := c :: !failed);
  let src = Contact.make "a" 1 and dst = Contact.make "b" 2 in
  (* the retransmit budget (12 transmissions, 5 ms doubling to 250 ms)
     runs out about 1.6 s into the partition, in virtual time *)
  Netsim.add_partition net ~group_a:[ src ] ~group_b:[ dst ] ~start:0.0 ~stop:2.0;
  Conn.send a ~dst (Meta.plain fmt) (ping 1);
  ignore (Netsim.run net);
  Alcotest.(check int) "failure reported once" 1 (List.length !failed);
  Alcotest.(check bool) "for the right peer" true (Contact.equal dst (List.hd !failed));
  Alcotest.(check int) "pending frames purged" 0 (Conn.unacked_frames a);
  Alcotest.(check int) "counted" 1 (Conn.stats a).Conn.peer_failures;
  (* a fresh send after the partition heals gives the peer another chance *)
  ignore (Netsim.advance net 1.0 : int);
  let got = ref 0 in
  Conn.set_handler b (fun ~src:_ _ _ -> incr got);
  Conn.send a ~dst (Meta.plain fmt) (ping 2);
  ignore (Netsim.run net);
  Alcotest.(check int) "recovered" 1 !got;
  Alcotest.(check int) "no second failure" 1 (Conn.stats a).Conn.peer_failures

(* --- echo: dead-sink eviction ------------------------------------------------ *)

let test_echo_evicts_dead_sink () =
  let net = Netsim.create ~seed:31 () in
  let creator = Echo.Node.create ~reliable:true net ~host:"creator" ~port:1 Echo.Node.V2 in
  let sink = Echo.Node.create ~reliable:true net ~host:"sink" ~port:2 Echo.Node.V2 in
  Echo.Node.create_channel creator "chan" ~as_source:true ~as_sink:false;
  Echo.Node.join sink ~creator:(Echo.Node.contact creator) "chan" ~as_source:false
    ~as_sink:true;
  Echo.Node.subscribe_events sink "chan" ignore;
  ignore (Netsim.run net);
  Alcotest.(check int) "sink joined" 2
    (List.length (Echo.Node.channel_members creator "chan"));
  (* the sink drops off the network; forwarded events miss their acks until
     the retransmit budget runs out, and the creator evicts the member *)
  let t0 = Netsim.now net in
  Netsim.add_partition net ~group_a:[ Echo.Node.contact creator ]
    ~group_b:[ Echo.Node.contact sink ] ~start:t0 ~stop:(t0 +. 10.0);
  Echo.Node.publish creator "chan" "are you alive?";
  ignore (Netsim.run net);
  let members = Echo.Node.channel_members creator "chan" in
  Alcotest.(check int) "sink evicted" 1 (List.length members);
  Alcotest.(check bool) "creator itself remains" true
    (Transport.Contact.equal (Echo.Node.contact creator)
       (List.hd members).Echo.Node.contact);
  Alcotest.(check int) "eviction counted" 1
    (Echo.Node.counters creator).Echo.Node.evicted;
  Alcotest.(check int) "endpoint recorded the failure" 1
    (Conn.stats (Echo.Node.endpoint creator)).Conn.peer_failures

let suite =
  [
    Alcotest.test_case "framing: envelope roundtrip" `Quick
      test_framing_envelope_roundtrip;
    Alcotest.test_case "framing: envelope errors" `Quick test_framing_envelope_errors;
    Alcotest.test_case "netsim: total loss" `Quick test_netsim_total_loss;
    Alcotest.test_case "netsim: loss is seeded" `Quick test_netsim_loss_is_seeded;
    Alcotest.test_case "netsim: drop metrics" `Quick test_netsim_drop_metrics;
    Alcotest.test_case "netsim: duplication" `Quick test_netsim_duplication;
    Alcotest.test_case "netsim: reordering" `Quick test_netsim_reordering;
    Alcotest.test_case "netsim: latency jitter" `Quick test_netsim_jitter;
    Alcotest.test_case "netsim: a new fault profile replaces the old" `Quick
      test_netsim_fault_profile_replaced;
    Alcotest.test_case "netsim: metrics mirror the stats" `Quick
      test_netsim_metrics_mirror_stats;
    Alcotest.test_case "netsim: timers and advance" `Quick test_netsim_timers_and_advance;
    Alcotest.test_case "netsim: run reports max-steps exhaustion" `Quick
      test_netsim_run_max_steps;
    Alcotest.test_case "netsim: timed partition" `Quick test_netsim_partition;
    Alcotest.test_case "netsim: a partition spares links outside its groups" `Quick
      test_netsim_partition_spares_other_links;
    Alcotest.test_case "netsim: a partition is decided at send time" `Quick
      test_netsim_partition_decided_at_send;
    Alcotest.test_case "conn: lost meta reply is retried with backoff" `Quick
      test_conn_meta_reply_lost_then_retried;
    Alcotest.test_case "conn: meta retry budget drops parked messages" `Quick
      test_conn_meta_retry_gives_up;
    Alcotest.test_case "conn: parked queues are bounded" `Quick
      test_conn_parked_queue_bounded;
    Alcotest.test_case "conn: reliable delivery under loss" `Quick
      test_conn_reliable_survives_loss;
    Alcotest.test_case "conn: duplicate suppression" `Quick
      test_conn_reliable_suppresses_duplicates;
    Alcotest.test_case "conn: reliable delivery under reordering" `Quick
      test_conn_reliable_survives_reordering;
    Alcotest.test_case "conn: retransmit budget declares peer failed" `Quick
      test_conn_reliable_peer_failure;
    Alcotest.test_case "echo: dead sink evicted" `Quick test_echo_evicts_dead_sink;
  ]
