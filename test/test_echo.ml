(* End-to-end tests of the ECho middleware across protocol versions —
   the paper's Section 4.1 scenario and variations. *)

module Contact = Transport.Contact
module Netsim = Transport.Netsim
module Node = Echo.Node

let setup () = Netsim.create ()

let mk net host port version = Node.create net ~host ~port version

let test_same_version_v2 () =
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let sink = mk net "sink" 2 Node.V2 in
  Node.create_channel creator "ch" ~as_source:true ~as_sink:false;
  let got = ref [] in
  Node.subscribe_events sink "ch" (fun p -> got := p :: !got);
  Node.join sink ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  Node.publish creator "ch" "e1";
  Node.publish creator "ch" "e2";
  ignore (Echo.settle net);
  Alcotest.(check (list string)) "events in order" [ "e1"; "e2" ] (List.rev !got);
  (* homogeneous system: every delivery on the sink was an exact match *)
  let s = Morph.Receiver.stats (Node.receiver sink) in
  Alcotest.(check int) "nothing rejected" 0 s.Morph.Receiver.rejected

let test_v2_creator_v1_subscriber_morphs () =
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let old_sink = mk net "legacy" 2 Node.V1 in
  Node.create_channel creator "ch" ~as_source:false ~as_sink:false;
  Node.join old_sink ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  (* the v1 node parsed a (morphed) response: membership is visible *)
  let members = Node.known_members old_sink "ch" in
  Alcotest.(check int) "two members" 2 (List.length members);
  let self =
    List.find (fun (m : Node.member) -> Contact.equal m.contact (Node.contact old_sink)) members
  in
  Alcotest.(check bool) "own sink flag (from src/sink lists)" true self.Node.is_sink;
  Alcotest.(check bool) "not a source" false self.Node.is_source;
  Alcotest.(check int) "no rejections" 0 (Node.counters old_sink).Node.rejected

let test_v1_creator_v2_subscriber_converts () =
  (* Forward compatibility: a v2 client joining a v1 creator receives a v1
     response with *no* transformation attached.  MaxMatch accepts the
     imperfect match and structural conversion fills the v2 booleans with
     defaults: membership arrives, role flags are lost.  This is exactly
     the "expanded compatibility space" (weaker but working) case. *)
  let net = setup () in
  let creator = mk net "creator" 1 Node.V1 in
  let new_sink = mk net "fresh" 2 Node.V2 in
  Node.create_channel creator "ch" ~as_source:true ~as_sink:false;
  Node.join new_sink ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  let members = Node.known_members new_sink "ch" in
  Alcotest.(check int) "membership arrived" 2 (List.length members);
  Alcotest.(check int) "no rejections" 0 (Node.counters new_sink).Node.rejected;
  (* events still flow to the v2 sink *)
  let got = ref 0 in
  Node.subscribe_events new_sink "ch" (fun _ -> incr got);
  Node.publish creator "ch" "x";
  ignore (Echo.settle net);
  Alcotest.(check int) "event delivered" 1 !got

let test_three_nodes_mixed_versions () =
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let old_sink = mk net "legacy" 2 Node.V1 in
  let new_src = mk net "fresh" 3 Node.V2 in
  Node.create_channel creator "ch" ~as_source:false ~as_sink:false;
  let got = ref [] in
  Node.subscribe_events old_sink "ch" (fun p -> got := p :: !got);
  Node.join old_sink ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  Node.join new_src ~creator:(Node.contact creator) "ch" ~as_source:true ~as_sink:false;
  ignore (Echo.settle net);
  Node.publish new_src "ch" "cross-version";
  ignore (Echo.settle net);
  Alcotest.(check (list string)) "event crossed versions" [ "cross-version" ] !got

let test_event_not_echoed_to_origin () =
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let node = mk net "both" 2 Node.V2 in
  Node.create_channel creator "ch" ~as_source:false ~as_sink:false;
  let got = ref 0 in
  Node.subscribe_events node "ch" (fun _ -> incr got);
  Node.join node ~creator:(Node.contact creator) "ch" ~as_source:true ~as_sink:true;
  ignore (Echo.settle net);
  Node.publish node "ch" "self";
  ignore (Echo.settle net);
  Alcotest.(check int) "not echoed back" 0 !got

let test_multiple_sinks_fanout () =
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  Node.create_channel creator "ch" ~as_source:true ~as_sink:false;
  let counts = Array.make 4 0 in
  let sinks =
    List.init 4 (fun i ->
        let n = mk net (Printf.sprintf "sink%d" i) (10 + i) (if i mod 2 = 0 then Node.V1 else Node.V2) in
        Node.subscribe_events n "ch" (fun _ -> counts.(i) <- counts.(i) + 1);
        Node.join n ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
        n)
  in
  ignore (Echo.settle net);
  Node.publish creator "ch" "fanout";
  ignore (Echo.settle net);
  Array.iteri (fun i c -> Alcotest.(check int) (Printf.sprintf "sink %d" i) 1 c) counts;
  List.iter
    (fun n -> Alcotest.(check int) "no rejects" 0 (Node.counters n).Node.rejected)
    sinks

let test_rejoin_is_idempotent () =
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let sink = mk net "sink" 2 Node.V2 in
  Node.create_channel creator "ch" ~as_source:false ~as_sink:false;
  Node.join sink ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  Node.join sink ~creator:(Node.contact creator) "ch" ~as_source:true ~as_sink:true;
  ignore (Echo.settle net);
  let members = Node.channel_members creator "ch" in
  Alcotest.(check int) "no duplicate membership" 2 (List.length members);
  let m =
    List.find (fun (m : Node.member) -> Contact.equal m.contact (Node.contact sink)) members
  in
  Alcotest.(check bool) "roles updated" true (m.Node.is_source && m.Node.is_sink)

let test_unknown_channel_request_ignored () =
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let sink = mk net "sink" 2 Node.V2 in
  ignore creator;
  Node.join sink ~creator:(Node.contact creator) "nochannel" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  Alcotest.(check int) "no members learned" 0
    (List.length (Node.known_members sink "nochannel"))

let test_strict_thresholds_reject_unknown_format () =
  (* a strict v1 node still interoperates thanks to the shipped
     transformation, but a plain v2 response (no xform) would be rejected;
     here we drive the receiver directly *)
  let r =
    Morph.Receiver.create
      ~config:
        (Morph.Receiver.Config.v ~thresholds:Morph.Maxmatch.strict_thresholds ())
      ()
  in
  Morph.Receiver.register r Echo.Wire_formats.channel_open_response_v1 (fun _ -> ());
  (match
     Morph.Receiver.deliver r
       (Pbio.Meta.plain Echo.Wire_formats.channel_open_response_v2)
       (Echo.Wire_formats.gen_response_v2 1)
   with
   | Morph.Receiver.Rejected _ -> ()
   | o -> Alcotest.failf "expected rejection, got %a" Morph.Receiver.pp_outcome o);
  (match
     Morph.Receiver.deliver r Echo.Wire_formats.response_v2_meta
       (Echo.Wire_formats.gen_response_v2 1)
   with
   | Morph.Receiver.Delivered _ -> ()
   | o -> Alcotest.failf "expected delivery, got %a" Morph.Receiver.pp_outcome o)

let test_link_failure_drops_but_system_survives () =
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let sink = mk net "sink" 2 Node.V2 in
  Node.create_channel creator "ch" ~as_source:true ~as_sink:false;
  let got = ref 0 in
  Node.subscribe_events sink "ch" (fun _ -> incr got);
  Node.join sink ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  (* sever creator <-> sink for a second; events are lost but nothing
     crashes *)
  let t0 = Netsim.now net in
  Netsim.add_partition net ~group_a:[ Node.contact creator ] ~group_b:[ Node.contact sink ]
    ~start:t0 ~stop:(t0 +. 1.0);
  Node.publish creator "ch" "lost";
  ignore (Echo.settle net);
  Alcotest.(check int) "event lost" 0 !got;
  ignore (Netsim.advance net 1.0 : int);
  Node.publish creator "ch" "recovered";
  ignore (Echo.settle net);
  Alcotest.(check int) "flows again" 1 !got

let test_event_format_evolution () =
  (* v2 publishers send v2 events; a v1 sink morphs each one, with the
     priority folded into the payload text by the Ecode snippet *)
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let old_sink = mk net "legacy" 2 Node.V1 in
  Node.create_channel creator "ch" ~as_source:true ~as_sink:false;
  let got = ref [] in
  Node.subscribe_events old_sink "ch" (fun p -> got := p :: !got);
  Node.join old_sink ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  Node.publish creator "ch" "plain";
  Node.publish ~priority:3 creator "ch" "urgent";
  ignore (Echo.settle net);
  Alcotest.(check (list string)) "priority folded for the old sink"
    [ "plain"; "[p3] urgent" ] (List.rev !got);
  Alcotest.(check int) "no rejections" 0 (Node.counters old_sink).Node.rejected

let test_event_v2_sink_sees_native_form () =
  (* a v2 sink on the same channel receives the native v2 event: payload
     untouched, priority available as a field *)
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let new_sink = mk net "fresh" 2 Node.V2 in
  Node.create_channel creator "ch" ~as_source:true ~as_sink:false;
  let got = ref [] in
  Node.subscribe_events new_sink "ch" (fun p -> got := p :: !got);
  Node.join new_sink ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  Node.publish ~priority:3 creator "ch" "urgent";
  ignore (Echo.settle net);
  Alcotest.(check (list string)) "payload untouched" [ "urgent" ] !got

let test_event_v1_publisher_v2_creator () =
  (* forward compatibility on the event path: a v1 publisher's events are
     structurally converted at the v2 creator (priority defaults to 0) and
     still reach every sink *)
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  let old_src = mk net "oldsrc" 2 Node.V1 in
  let sink = mk net "sink" 3 Node.V2 in
  Node.create_channel creator "ch" ~as_source:false ~as_sink:false;
  let got = ref [] in
  Node.subscribe_events sink "ch" (fun p -> got := p :: !got);
  Node.join old_src ~creator:(Node.contact creator) "ch" ~as_source:true ~as_sink:false;
  Node.join sink ~creator:(Node.contact creator) "ch" ~as_source:false ~as_sink:true;
  ignore (Echo.settle net);
  Node.publish old_src "ch" "from-the-past";
  ignore (Echo.settle net);
  Alcotest.(check (list string)) "delivered across versions" [ "from-the-past" ] !got

let test_large_mixed_fleet () =
  (* a bigger system: 1 creator, 5 publishers, 24 sinks alternating between
     versions; every event reaches every sink, nothing is rejected *)
  let net = setup () in
  let creator = mk net "creator" 1 Node.V2 in
  Node.create_channel creator "fleet" ~as_source:false ~as_sink:false;
  let received = Array.make 24 0 in
  let sinks =
    List.init 24 (fun i ->
        let v = if i mod 2 = 0 then Node.V1 else Node.V2 in
        let n = mk net (Printf.sprintf "sink%02d" i) (100 + i) v in
        Node.subscribe_events n "fleet" (fun _ -> received.(i) <- received.(i) + 1);
        Node.join n ~creator:(Node.contact creator) "fleet" ~as_source:false ~as_sink:true;
        n)
  in
  let sources =
    List.init 5 (fun i ->
        let v = if i mod 2 = 0 then Node.V2 else Node.V1 in
        let n = mk net (Printf.sprintf "src%d" i) (200 + i) v in
        Node.join n ~creator:(Node.contact creator) "fleet" ~as_source:true ~as_sink:false;
        n)
  in
  ignore (Echo.settle net);
  List.iteri
    (fun i src ->
       for k = 1 to 4 do
         Node.publish ~priority:(k mod 2) src "fleet" (Printf.sprintf "s%d-e%d" i k)
       done)
    sources;
  ignore (Echo.settle net);
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "sink %d got all events" i) 20 c)
    received;
  List.iter
    (fun n -> Alcotest.(check int) "no rejections" 0 (Node.counters n).Node.rejected)
    (sinks @ sources);
  (* every v1 sink planned the morph pipelines once each and then hit cache *)
  let v1_sink = List.nth sinks 0 in
  let s = Morph.Receiver.stats (Node.receiver v1_sink) in
  Alcotest.(check bool) "caching effective on the fleet" true
    (s.Morph.Receiver.cache_hits > s.Morph.Receiver.cold_paths)

let test_response_workload_generator () =
  (* the bench workload: sizes scale the way Table 1 expects *)
  let open Echo.Wire_formats in
  let v = gen_response_v2 10 in
  Alcotest.(check bool) "conforms" true
    (Pbio.Value.conforms (Pbio.Ptype.Record channel_open_response_v2) v);
  let n = members_for_unencoded_bytes 10_000 in
  let actual = Pbio.Sizeof.unencoded channel_open_response_v2 (gen_response_v2 n) in
  Alcotest.(check bool) "within 5% of requested size" true
    (abs (actual - 10_000) * 20 <= 10_000)

let suite =
  [
    Alcotest.test_case "same-version pub/sub" `Quick test_same_version_v2;
    Alcotest.test_case "v2 creator, v1 subscriber (morph)" `Quick
      test_v2_creator_v1_subscriber_morphs;
    Alcotest.test_case "v1 creator, v2 subscriber (convert)" `Quick
      test_v1_creator_v2_subscriber_converts;
    Alcotest.test_case "three nodes, mixed versions" `Quick test_three_nodes_mixed_versions;
    Alcotest.test_case "events not echoed to origin" `Quick test_event_not_echoed_to_origin;
    Alcotest.test_case "fanout to mixed-version sinks" `Quick test_multiple_sinks_fanout;
    Alcotest.test_case "rejoin is idempotent" `Quick test_rejoin_is_idempotent;
    Alcotest.test_case "unknown channel ignored" `Quick test_unknown_channel_request_ignored;
    Alcotest.test_case "strict thresholds" `Quick test_strict_thresholds_reject_unknown_format;
    Alcotest.test_case "link failure injection" `Quick
      test_link_failure_drops_but_system_survives;
    Alcotest.test_case "event format evolution (v2 -> v1 sink)" `Quick
      test_event_format_evolution;
    Alcotest.test_case "event v2 sink native form" `Quick test_event_v2_sink_sees_native_form;
    Alcotest.test_case "event v1 publisher, v2 creator" `Quick
      test_event_v1_publisher_v2_creator;
    Alcotest.test_case "large mixed-version fleet" `Quick test_large_mixed_fleet;
    Alcotest.test_case "workload generator sizes" `Quick test_response_workload_generator;
  ]
