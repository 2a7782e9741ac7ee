(* Benchmark suite reproducing every table and figure of the paper's
   evaluation (Section 5), plus the ablations listed in DESIGN.md.

     fig8-encoding    Figure 8: encoding cost, PBIO vs XML
     fig9-decoding    Figure 9: decoding cost without evolution
     table1-sizes     Table 1: ChannelOpenResponse sizes per representation
     fig10-evolution  Figure 10: decoding + format evolution,
                      PBIO morphing vs XML/XSLT
     abl1-dcg         compiled Ecode closures vs the tree-walking interpreter
     abl2-cache       cold (MaxMatch + codegen) vs cached receiver path
     abl3-maxmatch    MaxMatch cost vs number of candidate formats
     abl4-b2b         broker-side XSLT vs receiver-side morphing (Figs 6/7)
     abl5-chains      per-message cost against retro-transformation chain
                      depth: Ecode loop hops, and straight-line hops that
                      collapse into one fused plan
     codec            wire codec: per-field interpreter vs compiled plans
                      vs the fused decode->morph path
     msgpack          PBIO compiled plans vs a MsgPack-shaped tagged encoding
     alloc            time and allocation per morphed delivery: staged
                      decode + convert vs the fused plan (own sizes,
                      incl. 100 KB)
     parallel         domain-sharded fan-out: one batch over many sinks at
                      pool widths 1/2/4
     obs              telemetry hot paths: inert handles, labeled-family
                      lookup+record, pre-resolved series, and a traced
                      receiver delivery against an untraced one

   The workload is the paper's: a ChannelOpenResponse v2.0 message whose
   member list is sized so the unencoded struct is 100 B ... 1 MB.

   Usage: dune exec bench/main.exe -- [SECTION]... [--quick]
            [--only fig8,table1] [--json [FILE]] [--check-codec]
            [--check-parallel] [--check-obs] [--check-alloc]
   Bare SECTION tokens filter like --only entries; --json without a file
   writes BENCH_morph.json; --check-codec exits non-zero unless the
   compiled decode beats the interpreter (and fused beats staged) at the
   10 KB point — the CI guard against the fast path silently regressing.
   --check-parallel exits non-zero unless 4-domain fan-out beats the
   sequential baseline by >= 2x (skipped with a warning on machines with
   fewer than 4 recommended domains).  --check-obs exits non-zero unless
   the telemetry hot paths stay within their overhead budgets and a
   traced delivery promotes nothing to the major heap.
   --check-alloc exits non-zero unless, on the drop-heavy shape, the
   fused plan allocates at most a quarter of the staged bytes at the
   ~100 KB point and takes at most 0.75x the staged time from 1 KB up. *)

open Pbio
module WF = Echo.Wire_formats
module H = Harness

(* --- workload ---------------------------------------------------------------- *)

let full_sizes = [ 100; 1_000; 10_000; 100_000; 1_000_000 ]
let quick_sizes = [ 100; 1_000; 10_000 ]

type point = {
  label : string;
  members : int;
  v2_value : Value.t;
  v2_wire : string Lazy.t;
  v2_xml : string Lazy.t;
}

let make_point requested =
  let members = WF.members_for_unencoded_bytes requested in
  let v2_value = WF.gen_response_v2_full members in
  {
    label = Fmt.str "%a" H.pp_bytes requested;
    members;
    v2_value;
    v2_wire = lazy (Wire.encode ~format_id:1 WF.channel_open_response_v2 v2_value);
    v2_xml = lazy (Xmlkit.Pbio_xml.encode WF.channel_open_response_v2 v2_value);
  }

let ns = Fmt.str "%a" H.pp_ns

let ok_exn = function Ok v -> v | Error e -> failwith (Err.to_string e)

(* --- Figure 8: encoding cost -------------------------------------------------- *)

let fig8 points =
  H.section "fig8-encoding"
    "Figure 8: cost of encoding ChannelOpenResponse v2.0, PBIO vs XML \
     (paper: XML is at least 2x PBIO at every size)";
  H.row "   %-8s %10s %14s %14s %9s\n" "size" "members" "PBIO" "XML" "XML/PBIO";
  List.iter
    (fun p ->
       let pbio_ns =
         H.measure ~name:("fig8/pbio/" ^ p.label) (fun () ->
             ignore (Wire.encode ~format_id:1 WF.channel_open_response_v2 p.v2_value))
       in
       let xml_ns =
         H.measure ~name:("fig8/xml/" ^ p.label) (fun () ->
             ignore (Xmlkit.Pbio_xml.encode WF.channel_open_response_v2 p.v2_value))
       in
       H.row "   %-8s %10d %14s %14s %8.1fx\n" p.label p.members (ns pbio_ns)
         (ns xml_ns) (xml_ns /. pbio_ns))
    points

(* --- Figure 9: decoding cost without evolution --------------------------------- *)

let fig9 points =
  H.section "fig9-decoding"
    "Figure 9: cost of decoding into the native v2.0 structure, PBIO vs XML \
     (paper: PBIO is much cheaper thanks to generated conversion code)";
  H.row "   %-8s %14s %14s %9s\n" "size" "PBIO" "XML" "XML/PBIO";
  List.iter
    (fun p ->
       let wire = Lazy.force p.v2_wire in
       let xml = Lazy.force p.v2_xml in
       let pbio_ns =
         H.measure ~name:("fig9/pbio/" ^ p.label) (fun () ->
             ignore (Wire.decode WF.channel_open_response_v2 wire))
       in
       let xml_ns =
         H.measure ~name:("fig9/xml/" ^ p.label) (fun () ->
             match Xmlkit.Pbio_xml.decode WF.channel_open_response_v2 xml with
             | Ok _ -> ()
             | Error e -> failwith (Err.to_string e))
       in
       H.row "   %-8s %14s %14s %8.1fx\n" p.label (ns pbio_ns) (ns xml_ns)
         (xml_ns /. pbio_ns))
    points

(* --- Table 1: message sizes ----------------------------------------------------- *)

let table1 points =
  H.section "table1-sizes"
    "Table 1: ChannelOpenResponse size (bytes) by representation (paper: PBIO \
     adds <30 bytes; v1.0 triples the list data; XML is several times larger)";
  H.row "   %-8s %12s %12s %12s %12s %12s\n" "size" "unenc v2.0" "PBIO v2.0"
    "unenc v1.0" "XML v2.0" "XML v1.0";
  List.iter
    (fun p ->
       let v1_value =
         match
           Morph.morph_to WF.response_v2_meta ~target:WF.channel_open_response_v1
             p.v2_value
         with
         | Ok v -> v
         | Error e -> failwith (Err.to_string e)
       in
       let unenc_v2 = Sizeof.unencoded WF.channel_open_response_v2 p.v2_value in
       let pbio_v2 = String.length (Lazy.force p.v2_wire) in
       let unenc_v1 = Sizeof.unencoded WF.channel_open_response_v1 v1_value in
       let xml_v2 = String.length (Lazy.force p.v2_xml) in
       let xml_v1 =
         String.length (Xmlkit.Pbio_xml.encode WF.channel_open_response_v1 v1_value)
       in
       H.row "   %-8s %12d %12d %12d %12d %12d\n" p.label unenc_v2 pbio_v2 unenc_v1
         xml_v2 xml_v1)
    points

(* --- Figure 10: decoding with evolution ------------------------------------------ *)

let fig10 points =
  H.section "fig10-evolution"
    "Figure 10: decode an incoming v2.0 message and convert it to v1.0 — PBIO \
     + compiled Ecode morphing vs XML parse + XSLT + tree traversal (paper: \
     XML/XSLT is an order of magnitude slower)";
  let morph_pipeline =
    (* what a receiver caches after the first message of this format *)
    let xform =
      match
        Ecode.compile_xform ~src:WF.channel_open_response_v2
          ~dst:WF.channel_open_response_v1 WF.response_v2_to_v1_code
      with
      | Ok f -> f
      | Error e -> failwith e
    in
    fun wire -> xform (ok_exn (Wire.decode WF.channel_open_response_v2 wire))
  in
  let sheet = Xslt.Stylesheet.of_string WF.response_v2_to_v1_stylesheet in
  let xslt_pipeline xml =
    match Xmlkit.Xml_parser.parse xml with
    | Error e -> failwith e
    | Ok doc ->
      let out = Xslt.Engine.apply_to_element sheet doc in
      Xmlkit.Pbio_xml.of_xml WF.channel_open_response_v1 out
  in
  (* what this repository's receiver runs on the same wire message: its
     plan, which decodes v2.0 straight into v1.0 (Fig. 5's loops collapse) *)
  let got = ref None in
  let receiver = Morph.Receiver.create () in
  Morph.Receiver.register receiver WF.channel_open_response_v1 (fun v -> got := Some v);
  let receiver_plan wire =
    match Morph.Receiver.deliver_wire receiver WF.response_v2_meta wire with
    | Morph.Receiver.Delivered _ -> ()
    | o -> Fmt.failwith "unexpected outcome %a" Morph.Receiver.pp_outcome o
  in
  H.row "   %-8s %16s %16s %16s %10s %12s %12s %12s\n" "size" "PBIO morphing" "receiver plan"
    "XML/XSLT" "XSLT/PBIO" "PBIO B/op" "plan B/op" "XSLT B/op";
  List.iter
    (fun p ->
       let wire = Lazy.force p.v2_wire in
       let xml = Lazy.force p.v2_xml in
       (* the three pipelines must agree before we time them *)
       let want = morph_pipeline wire in
       assert (Value.equal want (xslt_pipeline xml));
       receiver_plan wire;
       assert (Option.equal Value.equal (Some want) !got);
       let pbio_ns, pbio_bytes, _ =
         H.measure_alloc ~name:("fig10/pbio/" ^ p.label) (fun () ->
             ignore (morph_pipeline wire))
       in
       let plan_ns, plan_bytes, _ =
         H.measure_alloc ~name:("fig10/plan/" ^ p.label) (fun () -> receiver_plan wire)
       in
       let xslt_ns, xslt_bytes, _ =
         H.measure_alloc ~name:("fig10/xslt/" ^ p.label) (fun () ->
             ignore (xslt_pipeline xml))
       in
       H.row "   %-8s %16s %16s %16s %9.1fx %12.0f %12.0f %12.0f\n" p.label (ns pbio_ns)
         (ns plan_ns) (ns xslt_ns) (xslt_ns /. pbio_ns) pbio_bytes plan_bytes xslt_bytes)
    points

(* --- Ablation 1: code generation vs interpretation -------------------------------- *)

let abl1 () =
  H.section "abl1-dcg"
    "Ablation: the Figure 5 transformation via compiled closures (the DCG \
     analogue) vs the tree-walking interpreter, both over one checked program \
     (10 KB message)";
  let p = make_point 10_000 in
  let get = function Ok f -> f | Error e -> failwith e in
  let compiled =
    get
      (Ecode.compile_xform ~src:WF.channel_open_response_v2
         ~dst:WF.channel_open_response_v1 WF.response_v2_to_v1_code)
  in
  let interpreted =
    get
      (Ecode.interpret_xform ~src:WF.channel_open_response_v2
         ~dst:WF.channel_open_response_v1 WF.response_v2_to_v1_code)
  in
  assert (Value.equal (compiled p.v2_value) (interpreted p.v2_value));
  let c, c_bytes, _ =
    H.measure_alloc ~name:"abl1/compiled" (fun () -> ignore (compiled p.v2_value))
  in
  let i, i_bytes, _ =
    H.measure_alloc ~name:"abl1/interpreted" (fun () -> ignore (interpreted p.v2_value))
  in
  H.row "   compiled closures:   %s  %.0f B/op\n" (ns c) c_bytes;
  H.row "   interpreter:         %s  %.0f B/op\n" (ns i) i_bytes;
  H.row "   codegen speedup:     %.1fx\n" (i /. c)

(* --- Ablation 2: cold path vs cached hot path -------------------------------------- *)

let abl2 () =
  H.section "abl2-cache"
    "Ablation: first-message cold path (MaxMatch + Ecode compilation + \
     pipeline build) vs cached hot path (1 KB message)";
  let p = make_point 1_000 in
  let cold () =
    let r = Morph.Receiver.create () in
    Morph.Receiver.register r WF.channel_open_response_v1 (fun _ -> ());
    match Morph.Receiver.deliver r WF.response_v2_meta p.v2_value with
    | Morph.Receiver.Delivered _ -> ()
    | o -> Fmt.failwith "unexpected outcome %a" Morph.Receiver.pp_outcome o
  in
  let hot =
    let r = Morph.Receiver.create () in
    Morph.Receiver.register r WF.channel_open_response_v1 (fun _ -> ());
    ignore (Morph.Receiver.deliver r WF.response_v2_meta p.v2_value);
    fun () -> ignore (Morph.Receiver.deliver r WF.response_v2_meta p.v2_value)
  in
  let cold_ns = H.measure ~name:"abl2/cold" cold in
  let hot_ns = H.measure ~name:"abl2/hot" hot in
  H.row "   cold path (plan + codegen + run): %s\n" (ns cold_ns);
  H.row "   hot path  (cached pipeline):      %s\n" (ns hot_ns);
  H.row "   one-off cost amortised after:     %.1f messages\n"
    ((cold_ns -. hot_ns) /. hot_ns)

(* --- Ablation 3: MaxMatch scaling ---------------------------------------------------- *)

let abl3 () =
  H.section "abl3-maxmatch"
    "Ablation: MaxMatch cost against the number of registered candidate \
     formats (same-name variants of ChannelOpenResponse)";
  let variant i =
    let extra =
      List.init (i mod 7) (fun j ->
          Ptype.field (Printf.sprintf "extra_%d_%d" i j) Ptype.int_)
    in
    { WF.channel_open_response_v1 with
      Ptype.fields = WF.channel_open_response_v1.Ptype.fields @ extra }
  in
  H.row "   %-12s %14s\n" "candidates" "MaxMatch";
  List.iter
    (fun n ->
       let candidates = List.init n variant in
       let t =
         H.measure ~name:(Printf.sprintf "abl3/%d" n) (fun () ->
             ignore
               (Morph.Maxmatch.max_match [ WF.channel_open_response_v2 ] candidates))
       in
       H.row "   %-12d %14s\n" n (ns t))
    [ 1; 4; 16; 64; 256 ]

(* --- Ablation 4: broker placement (Figures 6/7) --------------------------------------- *)

let abl4 () =
  H.section "abl4-b2b"
    "Ablation: end-to-end supply-chain run (200 orders + 200 statuses): XSLT \
     at the broker (Figure 6) vs morphing at the receivers (Figure 7)";
  let bench mode name =
    let result = ref None in
    let t =
      H.measure ~name:("abl4/" ^ name) (fun () ->
          result := Some (B2b.Scenario.run ~orders:200 mode))
    in
    (t, Option.get !result)
  in
  let xslt_ns, xslt_r = bench B2b.Broker.Xslt_at_broker "xslt" in
  let morph_ns, morph_r = bench B2b.Broker.Morph_at_receiver "morph" in
  H.row "   %-20s %14s %18s %14s\n" "mode" "wall time" "broker transforms"
    "wire bytes";
  H.row "   %-20s %14s %18d %14d\n" "xslt-at-broker" (ns xslt_ns)
    xslt_r.B2b.Scenario.broker_transforms xslt_r.B2b.Scenario.network_bytes;
  H.row "   %-20s %14s %18d %14d\n" "morph-at-receiver" (ns morph_ns)
    morph_r.B2b.Scenario.broker_transforms morph_r.B2b.Scenario.network_bytes;
  H.row "   end-to-end speedup: %.1fx; 100%% of transforms moved off the broker\n"
    (xslt_ns /. morph_ns)

(* --- Ablation 5: transformation chain depth ------------------------------------------ *)

let abl5 () =
  H.section "abl5-chains"
    "Ablation: morphing through multi-hop retro-transformation chains \
     (Figure 1 lineages): per-message cost against chain depth (1 KB \
     payload per revision field)";
  (* revision k has k+1 integer-array fields; hop k+1 -> k folds one away *)
  let max_depth = 5 in
  let rev k =
    Ptype_dsl.format_of_string_exn
      (Printf.sprintf "format Lineage { int n; int payload[n]; %s }"
         (String.concat " " (List.init (k + 1) (fun i -> Printf.sprintf "int g%d;" i))))
  in
  let hop k =
    let code =
      String.concat "\n"
        ([ "old.n = new.n;"; "int i;";
           "for (i = 0; i < new.n; i++) old.payload[i] = new.payload[i];" ]
         @ [ Printf.sprintf "old.g0 = new.g0 + new.g%d;" (k + 1) ]
         @ List.init k (fun i -> Printf.sprintf "old.g%d = new.g%d;" (i + 1) (i + 1)))
    in
    Morph.xform ~source:(rev (k + 1)) ~target:(rev k) code
  in
  let payload = List.init 250 (fun i -> Value.Int i) in
  H.row "   %-8s %16s %16s\n" "hops" "cold plan" "per message";
  List.iter
    (fun depth ->
       let newest = rev depth in
       let specs =
         List.init depth (fun i ->
             let k = depth - 1 - i in
             let x = hop k in
             if k + 1 = depth then { x with Pbio.Meta.source = None } else x)
       in
       let meta = Morph.meta newest ~xforms:specs in
       let v =
         Value.record
           (( "n", Value.Int 250 )
            :: ( "payload", Value.array_of_list payload )
            :: List.init (depth + 1) (fun i -> (Printf.sprintf "g%d" i, Value.Int i)))
       in
       let cold () =
         let r = Morph.Receiver.create () in
         Morph.Receiver.register r (rev 0) (fun _ -> ());
         match Morph.Receiver.deliver r meta v with
         | Morph.Receiver.Delivered _ -> ()
         | o -> Fmt.failwith "unexpected outcome %a" Morph.Receiver.pp_outcome o
       in
       let hot =
         let r = Morph.Receiver.create () in
         Morph.Receiver.register r (rev 0) (fun _ -> ());
         ignore (Morph.Receiver.deliver r meta v);
         fun () -> ignore (Morph.Receiver.deliver r meta v)
       in
       let cold_ns = H.measure ~name:(Printf.sprintf "abl5/cold/%d" depth) cold in
       let hot_ns = H.measure ~name:(Printf.sprintf "abl5/hot/%d" depth) hot in
       H.row "   %-8d %16s %16s\n" depth (ns cold_ns) (ns hot_ns))
    (List.init max_depth (fun i -> i + 1));
  (* the same revisions through [deliver_wire], each hop of [code k]
     with no sum: such hops collapse into one fused plan, so a wire
     delivery decodes straight into revision 0 however deep the chain.
     Returns each depth's per-message cost. *)
  let wire_rows ~name title code =
    H.row "   %s, deliver_wire:\n" title;
    H.row "   %-8s %16s %12s\n" "hops" "per message" "B/op";
    List.map
      (fun depth ->
         let specs =
           List.init depth (fun i ->
               let k = depth - 1 - i in
               let x = Morph.xform ~source:(rev (k + 1)) ~target:(rev k) (code k) in
               if k + 1 = depth then { x with Pbio.Meta.source = None } else x)
         in
         let meta = Morph.meta (rev depth) ~xforms:specs in
         let message =
           Wire.encode ~format_id:1 (rev depth)
             (Value.record
                (( "n", Value.Int 250 )
                 :: ( "payload", Value.array_of_list payload )
                 :: List.init (depth + 1) (fun i -> (Printf.sprintf "g%d" i, Value.Int i))))
         in
         let r = Morph.Receiver.create () in
         Morph.Receiver.register r (rev 0) (fun _ -> ());
         let deliver () =
           match Morph.Receiver.deliver_wire r meta message with
           | Morph.Receiver.Delivered _ -> ()
           | o -> Fmt.failwith "unexpected outcome %a" Morph.Receiver.pp_outcome o
         in
         let hot_ns, bytes, _ =
           H.measure_alloc ~name:(Printf.sprintf "abl5/%s/%d" name depth) deliver
         in
         H.row "   %-8d %16s %12.0f\n" depth (ns hot_ns) bytes;
         hot_ns)
      (List.init max_depth (fun i -> i + 1))
  in
  let moves k =
    [ "old.n = new.n;"; "old.payload = new.payload;"; Printf.sprintf "old.g0 = new.g%d;" (k + 1) ]
    @ List.init k (fun i -> Printf.sprintf "old.g%d = new.g%d;" (i + 1) (i + 1))
  in
  ignore (wire_rows ~name:"moves" "straight-line hops" (fun k -> String.concat "\n" (moves k))
          : float list);
  (* the loop hops above without the sum: the element-copy loop is a
     move of the whole array, so these collapse too *)
  let loops =
    wire_rows ~name:"loops" "loop hops" (fun k ->
        String.concat "\n"
          ([ "old.n = new.n;"; "int i;";
             "for (i = 0; i < new.n; i++) old.payload[i] = new.payload[i];" ]
           @ List.tl (List.tl (moves k))))
  in
  let one = List.hd loops and five = List.nth loops (max_depth - 1) in
  H.row "   loop hops: %d hops cost %.2fx 1 hop (item 5 gate: at most 1.5x) %s\n" max_depth
    (five /. one) (if five <= 1.5 *. one then "ok" else "OVER")

(* --- Ablation 6: end-to-end event throughput, ECho -------------------------------- *)

let abl6 () =
  H.section "abl6-echo-throughput"
    "Ablation: end-to-end ECho event delivery (creator + publisher + 4 \
     sinks, 500 events through the simulated network): homogeneous v2.0 \
     network vs mixed network where every sink is v1.0 and morphs each \
     event";
  let run_events sink_version =
    let net = Transport.Netsim.create () in
    let creator = Echo.Node.create net ~host:"creator" ~port:1 Echo.Node.V2 in
    let src = Echo.Node.create net ~host:"src" ~port:2 Echo.Node.V2 in
    Echo.Node.create_channel creator "bench" ~as_source:false ~as_sink:false;
    let received = ref 0 in
    let sinks =
      List.init 4 (fun i ->
          let n =
            Echo.Node.create net ~host:(Printf.sprintf "sink%d" i) ~port:(10 + i)
              sink_version
          in
          Echo.Node.subscribe_events n "bench" (fun _ -> incr received);
          Echo.Node.join n ~creator:(Echo.Node.contact creator) "bench"
            ~as_source:false ~as_sink:true;
          n)
    in
    Echo.Node.join src ~creator:(Echo.Node.contact creator) "bench" ~as_source:true
      ~as_sink:false;
    ignore (Echo.settle net);
    for i = 1 to 500 do
      Echo.Node.publish ~priority:(i mod 4) src "bench" (Printf.sprintf "event-%d" i)
    done;
    ignore (Echo.settle net);
    assert (!received = 4 * 500);
    List.iter
      (fun n -> assert ((Echo.Node.counters n).Echo.Node.rejected = 0))
      sinks
  in
  let v2_ns = H.measure ~name:"abl6/all-v2" (fun () -> run_events Echo.Node.V2) in
  let v1_ns = H.measure ~name:"abl6/v1-sinks" (fun () -> run_events Echo.Node.V1) in
  H.row "   %-36s %14s\n" "homogeneous v2.0 (exact matches)" (ns v2_ns);
  H.row "   %-36s %14s\n" "v1.0 sinks (morph every event)" (ns v1_ns);
  H.row "   morphing overhead on the full stack: %.0f%%\n"
    ((v1_ns -. v2_ns) /. v2_ns *. 100.)

(* --- codec suite: interpreter vs compiled plans vs fused morph --------------------- *)

(* Structural target for the fused path: v2.0 with the per-member
   source/sink flags dropped — a shape the receiver resolves with a pure
   conversion (no Ecode step), so wire delivery can fuse decode and morph. *)
let response_v2_trim : Ptype.record =
  Ptype.record "ChannelOpenResponse"
    [
      Ptype.field "channel" Ptype.string_;
      Ptype.field "member_count" Ptype.int_;
      Ptype.field "member_list" (Ptype.array_var "member_count" (Ptype.Record WF.member_v1));
    ]

(* requested size -> (interp decode, compiled decode, staged, fused), in ns;
   read back by the --check-codec guard *)
let codec_results : (int * (float * float * float * float)) list ref = ref []

let codec sized_points =
  H.section "codec"
    "Codec plans: per-field interpreter vs compiled plans, and fused \
     decode->morph vs staged (compiled decode, then compiled convert) \
     against a trimmed v2.0 target";
  let v2 = WF.channel_open_response_v2 in
  let enc = Codec.compile_encode ~endian:Codec.Little v2 in
  let dec = Codec.compile_decode ~endian:Codec.Little v2 in
  let conv = Convert.compile ~from_:v2 ~into:response_v2_trim in
  let mor = Codec.compile_morph ~endian:Codec.Little ~from_:v2 ~into:response_v2_trim in
  H.row "   %-8s %11s %11s %6s %11s %11s %6s %11s %11s %6s\n" "size" "enc/int"
    "enc/cmp" "x" "dec/int" "dec/cmp" "x" "staged" "fused" "x";
  List.iter
    (fun (requested, p) ->
       let payload = Codec.Interp.encode_payload ~endian:Codec.Little v2 p.v2_value in
       (* the paths must agree before we time them *)
       assert (String.equal payload (Codec.encode_payload enc p.v2_value));
       assert (
         Value.equal
           (conv (Codec.decode_payload dec payload))
           (Codec.morph_payload mor payload));
       let ei =
         H.measure ~name:("codec/interp-encode/" ^ p.label) (fun () ->
             ignore (Codec.Interp.encode_payload ~endian:Codec.Little v2 p.v2_value))
       in
       let ec =
         H.measure ~name:("codec/compiled-encode/" ^ p.label) (fun () ->
             ignore (Codec.encode_payload enc p.v2_value))
       in
       let di =
         H.measure ~name:("codec/interp-decode/" ^ p.label) (fun () ->
             ignore (Codec.Interp.decode_payload ~endian:Codec.Little v2 payload))
       in
       let dc =
         H.measure ~name:("codec/compiled-decode/" ^ p.label) (fun () ->
             ignore (Codec.decode_payload dec payload))
       in
       let st =
         H.measure ~name:("codec/staged/" ^ p.label) (fun () ->
             ignore (conv (Codec.decode_payload dec payload)))
       in
       let fu =
         H.measure ~name:("codec/fused/" ^ p.label) (fun () ->
             ignore (Codec.morph_payload mor payload))
       in
       codec_results := (requested, (di, dc, st, fu)) :: !codec_results;
       H.row "   %-8s %11s %11s %5.1fx %11s %11s %5.1fx %11s %11s %5.1fx\n" p.label
         (ns ei) (ns ec) (ei /. ec) (ns di) (ns dc) (di /. dc) (ns st) (ns fu)
         (st /. fu))
    sized_points

(* The CI guard: the 10 KB point must show the compiled decoder measurably
   ahead of the interpreter and the fused plan ahead of staged.  Thresholds
   are deliberately looser than the typical speedup so only a real
   fast-path regression (e.g. silently falling back to the interpreter)
   trips them on noisy CI machines. *)
let check_codec () : int =
  match List.assoc_opt 10_000 !codec_results with
  | None ->
    prerr_endline "check-codec: no 10KB codec measurement (did filters skip 'codec'?)";
    1
  | Some (di, dc, st, fu) ->
    let decode_ratio = di /. dc and fused_ratio = st /. fu in
    Printf.printf
      "check-codec @10KB: compiled decode %.2fx interpretive (need >= 1.25), \
       fused %.2fx staged (need > 1.00)\n"
      decode_ratio fused_ratio;
    if decode_ratio >= 1.25 && fused_ratio > 1.0 then 0
    else begin
      prerr_endline "check-codec: FAILED — compiled/fused fast path regressed";
      1
    end

(* --- msgpack: comparison against a tagged compact encoding ------------------------- *)

(* Where PBIO sits against a MessagePack-shaped encoding: schema-driven
   positional arrays, so no field names travel, but every value still
   pays a tag byte and big-endian scalars.  Measures both codecs' encode
   and decode so the ratio is computed from numbers taken in the same
   process state. *)
let msgpack sized_points =
  H.section "msgpack"
    "PBIO compiled plans vs a MsgPack-shaped tagged encoding (schema-driven \
     positional arrays, per-value tag bytes)";
  Msgpack.self_test ();
  let v2 = WF.channel_open_response_v2 in
  let enc = Codec.compile_encode ~endian:Codec.Little v2 in
  let dec = Codec.compile_decode ~endian:Codec.Little v2 in
  H.row "   %-8s %11s %11s %6s %11s %11s %6s %7s\n" "size" "enc/pbio"
    "enc/mp" "x" "dec/pbio" "dec/mp" "x" "bytes";
  List.iter
    (fun (_requested, p) ->
       let payload = Codec.encode_payload enc p.v2_value in
       let mp = Msgpack.encode_payload v2 p.v2_value in
       (* both codecs must roundtrip the point before we time them *)
       assert (Value.equal p.v2_value (Msgpack.decode_payload v2 mp));
       let ep =
         H.measure ~name:("msgpack/pbio-encode/" ^ p.label) (fun () ->
             ignore (Codec.encode_payload enc p.v2_value))
       in
       let em =
         H.measure ~name:("msgpack/mp-encode/" ^ p.label) (fun () ->
             ignore (Msgpack.encode_payload v2 p.v2_value))
       in
       let dp =
         H.measure ~name:("msgpack/pbio-decode/" ^ p.label) (fun () ->
             ignore (Codec.decode_payload dec payload))
       in
       let dm =
         H.measure ~name:("msgpack/mp-decode/" ^ p.label) (fun () ->
             ignore (Msgpack.decode_payload v2 mp))
       in
       H.row "   %-8s %11s %11s %5.1fx %11s %11s %5.1fx %6.2fx\n" p.label
         (ns ep) (ns em) (em /. ep) (ns dp) (ns dm) (dm /. dp)
         (float_of_int (String.length mp) /. float_of_int (String.length payload)))
    sized_points

(* --- alloc: allocation profile, staged vs fused ------------------------------------ *)

(* The alloc section keeps its own size list so the 100 KB gate point is
   measured even under --quick: the fused win on the drop-heavy shape is
   proportional to the bytes skipped, so the gate only means something on
   a large message. *)
let alloc_sizes = [ 100; 1_000; 10_000; 100_000 ]

(* The dropped-field-heavy shape the --check-alloc gate measures: a
   receiver that only wants the channel-open header, so the morph drops
   the entire member list.  This is the paper's common evolution case —
   an old receiver ignoring everything a newer writer added.  The staged
   path decodes every member before the conversion discards it; the
   fused plan skips each member on the wire, one coalesced bounds check
   for its fixed-width tail. *)
let response_v2_header : Ptype.record =
  Ptype.record "ChannelOpenResponse"
    [
      Ptype.field "channel" Ptype.string_;
      Ptype.field "member_count" Ptype.int_;
    ]

(* requested size -> (staged ns, staged bytes/op, fused ns, fused
   bytes/op) on the drop-heavy header shape; read back by --check-alloc. *)
let alloc_results : (int * (float * float * float * float)) list ref = ref []

let alloc_bench () =
  H.section "alloc"
    "Time and allocation per morphed delivery: staged (decode + convert) \
     vs the fused decode->morph plan.  'drop-heavy' morphs v2.0 to the \
     header only (member list skipped on the wire; the --check-alloc gate \
     shape); 'keep-most' morphs to the trimmed target that retains the \
     member list";
  let v2 = WF.channel_open_response_v2 in
  let dec = Codec.compile_decode ~endian:Codec.Little v2 in
  let shapes =
    [ ("drop-heavy", response_v2_header, true);
      ("keep-most", response_v2_trim, false) ]
  in
  H.row "   %-10s %-8s %11s %11s %6s %12s %12s %8s\n" "shape" "size"
    "staged" "fused" "s/f" "staged B/op" "fused B/op" "x";
  List.iter
    (fun requested ->
       let p = make_point requested in
       let payload =
         Codec.Interp.encode_payload ~endian:Codec.Little v2 p.v2_value
       in
       List.iter
         (fun (tag, into, gated) ->
            let conv = Convert.compile ~from_:v2 ~into in
            let mor = Codec.compile_morph ~endian:Codec.Little ~from_:v2 ~into in
            assert (
              Value.equal (Codec.morph_payload mor payload)
                (conv (Codec.decode_payload dec payload)));
            let nm suffix = Fmt.str "alloc/%s/%s/%s" suffix tag p.label in
            let s_ns, s_bytes, _ =
              H.measure_alloc ~name:(nm "staged") (fun () ->
                  ignore (conv (Codec.decode_payload dec payload)))
            in
            let f_ns, f_bytes, _ =
              H.measure_alloc ~name:(nm "fused") (fun () ->
                  ignore (Codec.morph_payload mor payload))
            in
            if gated then
              alloc_results :=
                (requested, (s_ns, s_bytes, f_ns, f_bytes)) :: !alloc_results;
            H.row "   %-10s %-8s %11s %11s %5.2fx %12.0f %12.0f %7.1fx\n"
              tag p.label (ns s_ns) (ns f_ns) (s_ns /. f_ns) s_bytes f_bytes
              (s_bytes /. Float.max f_bytes 1.0))
         shapes)
    alloc_sizes

(* The CI guard for the drop-heavy shape: the fused plan must allocate at
   most a quarter of the staged bytes at the large (>= ~97 KB) point, and
   take at most 0.75x the staged time at every size from ~1 KB up (below
   that, fixed per-call costs dominate both paths).  The byte ratio is
   deterministic; the time bound leaves slack for shared-machine noise. *)
let check_alloc () : int =
  let big =
    List.filter (fun (req, _) -> req >= 97_000) !alloc_results
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  match big with
  | [] ->
    prerr_endline "check-alloc: no >=97KB alloc measurement (did filters skip 'alloc'?)";
    1
  | (req, (_, s_bytes, _, f_bytes)) :: _ ->
    let byte_ratio = f_bytes /. Float.max s_bytes 1.0 in
    let time_ok =
      List.for_all
        (fun (r, (s_ns, _, f_ns, _)) ->
           let ok = r < 1_000 || f_ns <= s_ns *. 0.75 in
           if not ok then
             Printf.eprintf
               "check-alloc: fused %.0fns vs staged %.0fns at %d B (need <= 0.75x)\n"
               f_ns s_ns r;
           ok)
        !alloc_results
    in
    Printf.printf
      "check-alloc @%dB: fused allocates %.4fx the staged bytes \
       (need <= 0.25), fused time within 0.75x staged from 1 KB up: %b\n"
      req byte_ratio time_ok;
    if byte_ratio <= 0.25 && time_ok then 0
    else begin
      prerr_endline "check-alloc: FAILED — the fused drop-heavy path regressed";
      1
    end

(* --- parallel: domain-sharded fan-out ---------------------------------------------- *)

(* pool width -> ns per fan-out batch; read back by --check-parallel *)
let parallel_results : (int * float) list ref = ref []

let parallel_widths = [ 1; 2; 4 ]

let parallel quick =
  H.section "parallel"
    "Domain-sharded delivery: one wire batch fanned out to every sink \
     through Echo.Fanout, pool widths 1/2/4 (width 1 never spawns and is \
     the sequential baseline)";
  let v2 = WF.channel_open_response_v2 in
  let meta = Meta.plain v2 in
  let members = WF.members_for_unencoded_bytes 10_000 in
  let value = WF.gen_response_v2_full members in
  let nsinks = 32 in
  let nmsgs = if quick then 8 else 24 in
  let messages = Array.init nmsgs (fun i -> Wire.encode ~format_id:i v2 value) in
  let deliveries = nsinks * nmsgs in
  H.row "   %-8s %14s %16s %8s\n" "domains" "batch" "deliveries/s" "x";
  let base = ref Float.nan in
  List.iter
    (fun domains ->
       (* fresh sinks per width over one shared context: its plan cache
          is exactly what the workers contend on *)
       let ctx = Ctx.create () in
       let sinks =
         Array.init nsinks (fun i ->
             let recv =
               Morph.Receiver.create
                 ~config:(Morph.Receiver.Config.v ~ctx ()) ()
             in
             Morph.Receiver.register recv response_v2_trim (fun _ -> ());
             Echo.Fanout.sink ~name:(Fmt.str "sink%d" i) recv)
       in
       (* settle pipelines and plan caches before timing *)
       let warm = Echo.Fanout.deliver_batch ~sinks meta messages in
       assert (Echo.Fanout.delivered_count warm = deliveries);
       let t =
         Morph.Pool.with_pool ~domains (fun p ->
             let pool = if domains = 1 then None else Some p in
             H.measure ~name:(Fmt.str "parallel/fanout/%dd" domains) (fun () ->
                 ignore (Echo.Fanout.deliver_batch ?pool ~sinks meta messages)))
       in
       parallel_results := (domains, t) :: !parallel_results;
       if domains = 1 then base := t;
       H.row "   %-8d %14s %16.0f %7.2fx\n" domains (ns t)
         (float_of_int deliveries /. (t *. 1e-9))
         (!base /. t))
    parallel_widths

(* The CI guard: 4 domains must deliver the batch at least 2x faster than
   the sequential baseline.  Machines without the cores (laptops, small CI
   runners) skip with a warning instead of failing — the oracle, not this
   ratio, is what guards correctness there. *)
let check_parallel () : int =
  if Domain.recommended_domain_count () < 4 then begin
    Printf.printf
      "check-parallel: skipped — %d recommended domain(s) on this machine \
       (need >= 4 for a meaningful speedup gate)\n"
      (Domain.recommended_domain_count ());
    0
  end
  else
    match
      (List.assoc_opt 1 !parallel_results, List.assoc_opt 4 !parallel_results)
    with
    | Some t1, Some t4 ->
      let ratio = t1 /. t4 in
      Printf.printf
        "check-parallel: 4-domain fan-out %.2fx the 1-domain baseline (need >= 2.00)\n"
        ratio;
      if ratio >= 2.0 then 0
      else begin
        prerr_endline "check-parallel: FAILED — sharded delivery is not scaling";
        1
      end
    | _ ->
      prerr_endline
        "check-parallel: no parallel measurements (did filters skip 'parallel'?)";
      1

(* --- obs: telemetry hot-path overhead ---------------------------------------------- *)

(* Read back by --check-obs: handle costs in ns, and the bytes a traced
   delivery promotes to the major heap. *)
type obs_results = {
  inert : float;
  lookup : float;
  resolved : float;
  live_promoted : float;
}

let obs_results : obs_results option ref = ref None

(* lineage-small's head delivery: morphbench's lineage population (4
   versions, lineage seed 42) whose head version is 3 hops from the base
   format the receiver registers, delivered from the wire on a receiver
   that records into [reg]. *)
let lineage_head_delivery reg =
  let pop = Loadgen.Population.make ~versions:4 ~seed:42 () in
  let vs = Loadgen.Population.versions pop in
  let head = vs.(Array.length vs - 1) in
  let config = Morph.Receiver.Config.v ~metrics:reg ~ctx:(Ctx.create ~metrics:reg ()) () in
  let r = Morph.Receiver.create ~config () in
  Morph.Receiver.register r (Loadgen.Population.base pop) ignore;
  fun () ->
    match Morph.Receiver.deliver_wire r head.meta head.bytes with
    | Morph.Receiver.Delivered _ -> ()
    | o -> Fmt.failwith "unexpected outcome %a" Morph.Receiver.pp_outcome o

let obs_bench () =
  H.section "obs"
    "Telemetry hot paths: inert (Obs.null) handle increments, labeled-family \
     lookup+record, pre-resolved labeled series handles, and lineage-small's \
     3-hop head deliver_wire untraced (Obs.null) and traced (a live registry \
     whose trace ring has wrapped)";
  let null_c = Obs.Counter.make Obs.null "bench.null" in
  let inert =
    H.measure ~name:"obs/inert-incr" (fun () -> Obs.Counter.incr null_c)
  in
  let reg = Obs.create () in
  let fam =
    Obs.Labeled.counter reg ~keys:[ "tenant"; "reason" ] "bench.labeled"
  in
  (* pre-mint the series so the timed loop measures warm lookups, the
     shape of per-message label recording in the gateway *)
  for i = 0 to 15 do
    Obs.Labeled.incr fam [ string_of_int i; "quota" ]
  done;
  let k = ref 0 in
  let lookup =
    H.measure ~name:"obs/labeled-incr" (fun () ->
        incr k;
        Obs.Labeled.incr fam [ string_of_int (!k land 15); "quota" ])
  in
  let h = Obs.Labeled.counter_series fam [ "0"; "quota" ] in
  let resolved =
    H.measure ~name:"obs/resolved-incr" (fun () -> Obs.Counter.incr h)
  in
  H.row "   %-36s %14s\n" "inert handle incr (Obs.null)" (ns inert);
  H.row "   %-36s %14s\n" "labeled lookup + record" (ns lookup);
  H.row "   %-36s %14s\n" "pre-resolved series incr" (ns resolved);
  let deliver name reg =
    let f = lineage_head_delivery reg in
    (* fill the ring, so each span evicts one as in a long run *)
    for _ = 0 to Obs.Trace.capacity reg do
      f ()
    done;
    let t, bytes, _ = H.measure_alloc ~name f in
    (t, bytes, H.promoted_of f)
  in
  let null_ns, null_b, null_p = deliver "obs/deliver-null" Obs.null in
  let live_reg = Obs.create () in
  let live_ns, live_b, live_p = deliver "obs/deliver-live" live_reg in
  obs_results := Some { inert; lookup; resolved; live_promoted = live_p };
  H.row "   %-36s %14s %10s %14s\n" "head deliver_wire" "time" "B/op" "promoted B/op";
  H.row "   %-36s %14s %10.0f %14.1f\n" "untraced (Obs.null)" (ns null_ns) null_b null_p;
  H.row "   %-36s %14s %10.0f %14.1f\n" "traced (live registry, ring wrapped)" (ns live_ns)
    live_b live_p;
  H.row "   %-36s %14s\n" "telemetry (traced - untraced)" (ns (live_ns -. null_ns))

(* The CI guard: telemetry must stay cheap enough to leave on everywhere.
   Time budgets are far above the typical numbers so only a real
   regression (e.g. an allocation sneaking into the inert or resolved
   path) trips them on noisy CI machines.  The promotion budget is a
   count, not a time: a traced delivery whose span or attributes outlive
   the minor heap promotes hundreds of bytes, one that keeps nothing
   alive promotes none. *)
let check_obs () : int =
  match !obs_results with
  | None ->
    prerr_endline "check-obs: no obs measurements (did filters skip 'obs'?)";
    1
  | Some { inert; lookup; resolved; live_promoted } ->
    Printf.printf
      "check-obs: inert %.1fns (need <= 100), labeled lookup+record %.0fns \
       (need <= 10000), resolved series %.1fns (need <= 100), traced delivery \
       promotes %.1f B (need <= 8)\n"
      inert lookup resolved live_promoted;
    if inert <= 100. && lookup <= 10_000. && resolved <= 100. && live_promoted <= 8.
    then 0
    else begin
      prerr_endline "check-obs: FAILED — telemetry hot path regressed";
      1
    end

(* --- driver ------------------------------------------------------------------------ *)

let contains (hay : string) (needle : string) : bool =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

type opts = {
  quick : bool;
  filters : string list; (* from --only and bare positional tokens *)
  json : string option;
  check : bool;
  check_parallel : bool;
  check_obs : bool;
  check_alloc : bool;
}

let parse_args () : opts =
  let is_flag s = String.length s > 1 && s.[0] = '-' in
  let rec go acc = function
    | [] -> acc
    | "--quick" :: rest -> go { acc with quick = true } rest
    | "--check-codec" :: rest -> go { acc with check = true } rest
    | "--check-parallel" :: rest -> go { acc with check_parallel = true } rest
    | "--check-obs" :: rest -> go { acc with check_obs = true } rest
    | "--check-alloc" :: rest -> go { acc with check_alloc = true } rest
    | "--only" :: v :: rest when not (is_flag v) ->
      go { acc with filters = acc.filters @ String.split_on_char ',' v } rest
    | "--json" :: v :: rest when not (is_flag v) -> go { acc with json = Some v } rest
    | "--json" :: rest -> go { acc with json = Some "BENCH_morph.json" } rest
    | tok :: rest when not (is_flag tok) ->
      (* bare section name, e.g. `bench/main.exe codec --json` *)
      go { acc with filters = acc.filters @ [ tok ] } rest
    | tok :: _ ->
      prerr_endline ("bench: unknown option " ^ tok);
      exit 2
  in
  go
    { quick = false; filters = []; json = None; check = false;
      check_parallel = false; check_obs = false; check_alloc = false }
    (List.tl (Array.to_list Sys.argv))

let () =
  let opts = parse_args () in
  (* a filter picks the sections whose key it is part of ([abl] picks
     every ablation), or the one whose printed name it is ([abl2-cache]) *)
  let want name =
    match opts.filters with
    | [] -> true
    | names ->
      List.exists (fun n -> contains name n || String.starts_with ~prefix:name n) names
  in
  let sizes = if opts.quick then quick_sizes else full_sizes in
  Printf.printf
    "Message Morphing evaluation (ICDCS 2005 reproduction)%s\n\
     workload: ChannelOpenResponse v2.0, member list sized for unencoded \
     targets %s\n"
    (if opts.quick then " [quick]" else "")
    (String.concat ", " (List.map (Fmt.str "%a" H.pp_bytes) sizes));
  let points = List.map make_point sizes in
  let sized_points = List.combine sizes points in
  if want "fig8" then fig8 points;
  if want "fig9" then fig9 points;
  if want "table1" then table1 points;
  if want "fig10" then fig10 points;
  if want "abl1" then abl1 ();
  if want "abl2" then abl2 ();
  if want "abl3" then abl3 ();
  if want "abl4" then abl4 ();
  if want "abl5" then abl5 ();
  if want "abl6" then abl6 ();
  if want "codec" then codec sized_points;
  if want "msgpack" then msgpack sized_points;
  if want "alloc" then alloc_bench ();
  if want "parallel" then parallel opts.quick;
  if want "obs" then obs_bench ();
  Option.iter
    (fun path ->
       H.write_json path;
       Printf.printf "\nmeasurements written to %s\n" path)
    opts.json;
  print_newline ();
  if opts.check || opts.check_parallel || opts.check_obs || opts.check_alloc
  then begin
    let rc = if opts.check then check_codec () else 0 in
    let rcp = if opts.check_parallel then check_parallel () else 0 in
    let rco = if opts.check_obs then check_obs () else 0 in
    let rca = if opts.check_alloc then check_alloc () else 0 in
    exit (max (max rc rca) (max rcp rco))
  end
