(* Tests for receiver-side message processing — Algorithm 2 and its cache. *)

open Pbio
module Receiver = Morph.Receiver

let fmt = Ptype_dsl.format_of_string_exn

let make_receiver ?thresholds target =
  let r = Receiver.create ~config:(Receiver.Config.v ?thresholds ()) () in
  let got = ref [] in
  Receiver.register r target (fun v -> got := v :: !got);
  (r, got)

let via_of = function
  | Receiver.Delivered { via; _ } -> via
  | o -> Alcotest.failf "expected delivery, got %a" Receiver.pp_outcome o

let test_exact_match () =
  let r, got = make_receiver Helpers.response_v2 in
  let v = Helpers.sample_v2 2 in
  let outcome = Receiver.deliver r (Meta.plain Helpers.response_v2) v in
  Alcotest.(check bool) "exact" true (via_of outcome = Receiver.Exact);
  Alcotest.(check int) "handler ran" 1 (List.length !got);
  Alcotest.check Helpers.value "value untouched" v (List.hd !got)

let test_reordered_perfect_match () =
  let a = fmt "format R { int x; string s; }" in
  let b = fmt "format R { string s; int x; }" in
  let r, got = make_receiver b in
  let v = Value.record [ ("x", Value.Int 1); ("s", Value.String "q") ] in
  let outcome = Receiver.deliver r (Meta.plain a) v in
  Alcotest.(check bool) "reordered" true (via_of outcome = Receiver.Reordered);
  let out = List.hd !got in
  Alcotest.(check bool) "conforms to registered format" true
    (Value.conforms (Ptype.Record b) out);
  Alcotest.(check int) "x preserved" 1 (Value.to_int (Value.get_field out "x"))

let test_converted_imperfect_match () =
  (* no transformation attached; close-enough format converts structurally *)
  let incoming = fmt "format R { int x; int extra; }" in
  let registered = fmt "format R { int x; int missing = 5; }" in
  let r, got = make_receiver registered in
  let v = Value.record [ ("x", Value.Int 3); ("extra", Value.Int 9) ] in
  let outcome = Receiver.deliver r (Meta.plain incoming) v in
  Alcotest.(check bool) "converted" true (via_of outcome = Receiver.Converted);
  let out = List.hd !got in
  Alcotest.(check int) "kept" 3 (Value.to_int (Value.get_field out "x"));
  Alcotest.(check int) "default filled" 5 (Value.to_int (Value.get_field out "missing"));
  Alcotest.(check bool) "extra dropped" false (Value.has_field out "extra")

let test_morphed_via_transformation () =
  let r, got = make_receiver Helpers.response_v1 in
  let v = Helpers.sample_v2 6 in
  let outcome = Receiver.deliver r Helpers.response_v2_meta v in
  (match via_of outcome with
   | Receiver.Morphed _ -> ()
   | via -> Alcotest.failf "expected Morphed, got %a" Receiver.pp_via via);
  let out = List.hd !got in
  Alcotest.(check bool) "conforms to v1" true
    (Value.conforms (Ptype.Record Helpers.response_v1) out);
  Alcotest.(check int) "sinks extracted" 3 (Value.to_int (Value.get_field out "sink_count"))

let test_morphed_then_converted () =
  (* the transformation targets a format that is close to but not exactly
     the registered one: morph, then structural conversion *)
  let registered =
    fmt
      {|record CMcontact_info { string host; int port; }
        record Member { CMcontact_info info; int ID; }
        format ChannelOpenResponse {
          string channel;
          int member_count;
          Member member_list[member_count];
          int src_count;
          Member src_list[src_count];
          int sink_count;
          Member sink_list[sink_count];
          int protocol_rev = 1;
        }|}
  in
  let r, got = make_receiver registered in
  let outcome = Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 4) in
  (match via_of outcome with
   | Receiver.Morphed_converted _ -> ()
   | via -> Alcotest.failf "expected Morphed_converted, got %a" Receiver.pp_via via);
  let out = List.hd !got in
  Alcotest.(check int) "extra field defaulted" 1
    (Value.to_int (Value.get_field out "protocol_rev"))

let test_rejected_no_name () =
  let r, _ = make_receiver Helpers.response_v1 in
  let other = fmt "format Unrelated { int x; }" in
  (match Receiver.deliver r (Meta.plain other) (Value.record [ ("x", Value.Int 1) ]) with
   | Receiver.Rejected _ -> ()
   | o -> Alcotest.failf "expected rejection, got %a" Receiver.pp_outcome o);
  Alcotest.(check int) "stat counted" 1 (Receiver.stats r).Receiver.rejected

let test_rejected_over_threshold () =
  let strict = Morph.Maxmatch.strict_thresholds in
  let r, _ = make_receiver ~thresholds:strict Helpers.response_v1 in
  (* v2 -> v1 via the transformation is a perfect match even under strict
     thresholds, so morphing still works *)
  (match Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 2) with
   | Receiver.Delivered _ -> ()
   | o -> Alcotest.failf "expected delivery, got %a" Receiver.pp_outcome o);
  (* but without the transformation the mismatch exceeds zero: reject *)
  let r2, _ = make_receiver ~thresholds:strict Helpers.response_v1 in
  (match Receiver.deliver r2 (Meta.plain Helpers.response_v2) (Helpers.sample_v2 2) with
   | Receiver.Rejected _ -> ()
   | o -> Alcotest.failf "expected rejection, got %a" Receiver.pp_outcome o)

let test_default_handler () =
  let r, _ = make_receiver Helpers.response_v1 in
  let hits = ref 0 in
  Receiver.set_default_handler r (fun _ _ -> incr hits);
  let other = fmt "format Unrelated { int x; }" in
  (match Receiver.deliver r (Meta.plain other) (Value.record [ ("x", Value.Int 1) ]) with
   | Receiver.Defaulted -> ()
   | o -> Alcotest.failf "expected default, got %a" Receiver.pp_outcome o);
  Alcotest.(check int) "default handler ran" 1 !hits

let test_cache_behaviour () =
  let r, got = make_receiver Helpers.response_v1 in
  for _ = 1 to 10 do
    ignore (Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 1))
  done;
  let s = Receiver.stats r in
  Alcotest.(check int) "one cold path" 1 s.Receiver.cold_paths;
  Alcotest.(check int) "nine hits" 9 s.Receiver.cache_hits;
  Alcotest.(check int) "all delivered" 10 (List.length !got)

let test_cache_keyed_on_meta_not_name () =
  (* two distinct incoming formats with the same name plan separately *)
  let r, _ = make_receiver Helpers.response_v1 in
  ignore (Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 1));
  ignore (Receiver.deliver r (Meta.plain Helpers.response_v1) (Value.default_record Helpers.response_v1));
  let s = Receiver.stats r in
  Alcotest.(check int) "two cold paths" 2 s.Receiver.cold_paths

let test_register_resets_cache () =
  let r, _ = make_receiver Helpers.response_v1 in
  ignore (Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 1));
  Receiver.register r Helpers.response_v2 (fun _ -> ());
  (* the new registration makes an exact match possible; the cache must not
     keep routing to the morphed pipeline *)
  let outcome = Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 1) in
  Alcotest.(check bool) "now exact" true (via_of outcome = Receiver.Exact)

let test_rejection_is_cached_too () =
  let r, _ = make_receiver Helpers.response_v1 in
  let other = fmt "format Unrelated { int x; }" in
  ignore (Receiver.deliver r (Meta.plain other) (Value.record [ ("x", Value.Int 1) ]));
  ignore (Receiver.deliver r (Meta.plain other) (Value.record [ ("x", Value.Int 2) ]));
  let s = Receiver.stats r in
  Alcotest.(check int) "planned once" 1 s.Receiver.cold_paths;
  Alcotest.(check int) "hit the cached rejection" 1 s.Receiver.cache_hits;
  Alcotest.(check int) "both rejected" 2 s.Receiver.rejected

let test_bad_transformation_rejects () =
  (* broken Ecode in the meta-data must reject, not crash *)
  let meta =
    { Meta.body = Helpers.response_v2;
      xforms = [ { Meta.source = None; target = Helpers.response_v1; code = "this is not C" } ] }
  in
  let r, _ = make_receiver Helpers.response_v1 in
  (match Receiver.deliver r meta (Helpers.sample_v2 1) with
   | Receiver.Rejected _ -> ()
   | o -> Alcotest.failf "expected rejection, got %a" Receiver.pp_outcome o)

let test_multiple_registered_picks_best () =
  (* registered: v1 and v2; incoming v2 with xform: exact match to v2 wins *)
  let r = Receiver.create () in
  let hits_v1 = ref 0 and hits_v2 = ref 0 in
  Receiver.register r Helpers.response_v1 (fun _ -> incr hits_v1);
  Receiver.register r Helpers.response_v2 (fun _ -> incr hits_v2);
  ignore (Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 1));
  Alcotest.(check int) "v2 handler" 1 !hits_v2;
  Alcotest.(check int) "v1 untouched" 0 !hits_v1

let test_deliver_wire () =
  let r, got = make_receiver Helpers.response_v1 in
  let v = Helpers.sample_v2 3 in
  let message = Wire.encode ~format_id:5 Helpers.response_v2 v in
  (match Receiver.deliver_wire r Helpers.response_v2_meta message with
   | Receiver.Delivered _ -> ()
   | o -> Alcotest.failf "expected delivery, got %a" Receiver.pp_outcome o);
  Alcotest.(check int) "decoded and morphed" 3
    (Value.to_int (Value.get_field (List.hd !got) "member_count"))

let test_interpreted_engine_equivalent () =
  (* the interpreted reference runs the path a receiver plans *)
  let r, got = make_receiver Helpers.response_v1 in
  ignore (Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 5));
  let morph engine =
    Helpers.check_ok_err
      (Morph.morph_to ~engine Helpers.response_v2_meta ~target:Helpers.response_v1
         (Helpers.sample_v2 5))
  in
  let compiled = morph Morph.Xform.Compiled in
  Alcotest.check Helpers.value "receiver and compiled agree" (List.hd !got) compiled;
  Alcotest.check Helpers.value "engines agree" compiled (morph Morph.Xform.Interpreted)

(* One Ecode semantics: each probe gives the same outcome, with the same
   text, through [Morph.morph_to] on both engines.  An enum store no case
   carries fails the message; a read of a field the source lacks, a
   string into an int and a number into a string are refused at compile
   time, with the checker's text; an index below 0, or past the largest
   array, fails the message. *)
let test_engines_same_outcome () =
  let outcome engine (src, dst, code, v) =
    let dst = fmt dst in
    let meta = Morph.meta (fmt src) ~xforms:[ Morph.xform ~target:dst code ] in
    match Morph.morph_to ~engine meta ~target:dst v with
    | Ok x -> "delivered " ^ Value.to_string x
    | Error e -> Err.to_string e
  in
  let s = "format S { int a; float f; }" in
  let v = Value.record [ ("a", Value.Int 0); ("f", Value.Float 1.5) ] in
  List.iter
    (fun (probe, want) ->
       let c = outcome Morph.Xform.Compiled probe in
       Alcotest.(check string) "interpreted as compiled" c (outcome Morph.Xform.Interpreted probe);
       Alcotest.(check bool) (Printf.sprintf "%S in %S" want c) true (Helpers.contains c want))
    [ ( ( "format S { int p; }", "enum E { A = 0, B = 1 } format T { E e; }", "old.e = new.p;",
          Value.record [ ("p", Value.Int 5) ] ),
        "transformation failed: no case of enum E has value 5" );
      ((s, "format T { int x; }", "old.x = new.zz;", v), "type error at 1:");
      ((s, "format T { int x; }", "old.x = \"s\";", v), "cannot convert string to int");
      ((s, "format T { string x; }", "old.x = new.a + new.f;", v), "cannot assign float to string");
      ( (s, "format T { int n; int l[n]; }", "old.l[new.a - 1] = 3;", v),
        "transformation failed: negative array index -1" );
      ( (s, "format T { int n; int l[n]; }", "old.l[1152921504606846975] = 1;", v),
        "transformation failed: array index 1152921504606846975 exceeds the largest array length" )
    ]

(* A sender's hop that stores past the largest array fails its message,
   by value and over the wire, and counts as a transform failure; nothing
   escapes the receiver. *)
let test_hostile_store_rejected () =
  let src = fmt "format S { int a; }" and t = fmt "format T { int n; int l[n]; }" in
  let meta = Morph.meta src ~xforms:[ Morph.xform ~target:t "old.l[1152921504606846975] = 1;" ] in
  let r, got = make_receiver t in
  Alcotest.(check bool) "staged" true
    (Helpers.contains (Receiver.explain r meta) "[staged, 1 hop]");
  let v = Value.record [ ("a", Value.Int 1) ] in
  let rejected what o failures =
    (match o with
     | Receiver.Rejected reason when Helpers.contains reason "transformation failed: " -> ()
     | o -> Alcotest.failf "%s: %a" what Receiver.pp_outcome o);
    Alcotest.(check int) (what ^ ": transform failures") failures
      (Receiver.stats r).Receiver.transform_failures
  in
  rejected "wire" (Receiver.deliver_wire r meta (Wire.encode ~format_id:1 src v)) 1;
  rejected "value" (Receiver.deliver r meta v) 2;
  Alcotest.(check int) "nothing delivered" 0 (List.length !got)

(* A numeric literal the lexer cannot read is a lexical error in the
   sender's hop: every delivery of the format is rejected with it, by
   value and over the wire, [Morph.check_meta] reports it, and nothing
   escapes. *)
let test_bad_literal_rejected () =
  let src = fmt "format S { int a; }" and t = fmt "format T { int b; float f; }" in
  let v = Value.record [ ("a", Value.Int 1) ] in
  List.iter
    (fun (code, want) ->
       let meta = Morph.meta src ~xforms:[ Morph.xform ~target:t code ] in
       let r, got = make_receiver t in
       let rejected what o =
         match o with
         | Receiver.Rejected reason when Helpers.contains reason want -> ()
         | o -> Alcotest.failf "%s, %s: %a" code what Receiver.pp_outcome o
       in
       rejected "first wire" (Receiver.deliver_wire r meta (Wire.encode ~format_id:1 src v));
       rejected "second wire" (Receiver.deliver_wire r meta (Wire.encode ~format_id:1 src v));
       rejected "value" (Receiver.deliver r meta v);
       Alcotest.(check int) "nothing delivered" 0 (List.length !got);
       match Morph.check_meta meta with
       | Error e when Helpers.contains (Err.to_string e) want -> ()
       | Error e -> Alcotest.failf "%s, check_meta: %s" code (Err.to_string e)
       | Ok () -> Alcotest.failf "%s, check_meta: accepted" code)
    [ ("old.b = 99999999999999999999;",
       "lexical error at 1:9: integer literal 99999999999999999999 out of range");
      ("old.b = 4611686018427387904;",
       "lexical error at 1:9: integer literal 4611686018427387904 out of range");
      ("old.f = 1.5e;", "lexical error at 1:9: malformed float literal 1.5e");
      ("old.b = 1;\nold.f = 1e+;", "lexical error at 2:9: malformed float literal 1e+") ]

(* How a plan ends a message, as the front ends see it: the value, or
   the class of its [Plan.Failed] and the message. *)
let plan_outcome f x =
  match f x with
  | v -> "ok " ^ Value.to_string v
  | exception Morph.Plan.Failed (Decode e) -> "decode: " ^ Err.message e
  | exception Morph.Plan.Failed (Transform msg) -> "transform: " ^ msg

let compile_plan ?engine ~source ~target specs =
  let p =
    Helpers.check_ok_err (Morph.Plan.compile ?engine ~ctx:(Ctx.create ()) ~source ~specs ~target ())
  in
  (p, Fmt.str "%a" Morph.Plan.pp p)

(* A malformed message is a decode failure on every kind of plan, from
   [run] and from [decode]. *)
let test_plan_decode_failure () =
  let s = fmt "format S { int a; string s; }" and t = fmt "format T { int a; }" in
  let v = Value.record [ ("a", Value.Int 3); ("s", Value.String "hello") ] in
  let message = Wire.encode ~format_id:1 s v in
  let cut = String.sub message 0 (String.length message - 2) in
  List.iter
    (fun (name, target, specs, kind) ->
       let p, shape = compile_plan ~source:s ~target specs in
       Alcotest.(check string) (name ^ ": plan") kind shape;
       Alcotest.(check bool) (name ^ ": whole message runs") true
         (String.starts_with ~prefix:"ok " (plan_outcome (Morph.Plan.run p) message));
       List.iter
         (fun (entry, f) ->
            let o = plan_outcome f cut in
            Alcotest.(check bool) (Printf.sprintf "%s: %s: %s" name entry o) true
              (String.starts_with ~prefix:"decode: " o))
         [ ("run", Morph.Plan.run p); ("decode", Morph.Plan.decode p) ])
    [ ("exact", s, [], "fused");
      ("structural", t, [], "fused");
      ("collapsed", t, [ Morph.xform ~target:t "old.a = new.a;" ], "fused, 1 hop");
      ( "staged", t,
        [ Morph.xform ~target:t "if (new.a > 0) old.a = 1; else old.a = 2;" ],
        "staged, 1 hop" ) ]

(* A hop that fails on a message is a transform failure, by value and over
   the wire, on both engines; the staged decode itself succeeds. *)
let test_plan_hop_failure () =
  let s = fmt "format S { int a; }" and t = fmt "format T { int n; int l[n]; }" in
  let v = Value.record [ ("a", Value.Int 0) ] in
  let message = Wire.encode ~format_id:1 s v in
  List.iter
    (fun engine ->
       let p, shape =
         compile_plan ~engine ~source:s ~target:t [ Morph.xform ~target:t "old.l[new.a - 1] = 3;" ]
       in
       Alcotest.(check string) "plan" "staged, 1 hop" shape;
       Alcotest.(check string) "decode" "ok {a=0}" (plan_outcome (Morph.Plan.decode p) message);
       List.iter
         (fun (entry, o) ->
            Alcotest.(check string) entry "transform: negative array index -1" o)
         [ ("transform", plan_outcome (Morph.Plan.transform p) v);
           ("run", plan_outcome (Morph.Plan.run p) message) ])
    [ Morph.Xform.Compiled; Morph.Xform.Interpreted ]

(* An enum coercion a message fails is a transform failure, never a
   decode failure: from the collapsed chain's fused read (compiled), from
   the staged hop (interpreted) and from the value path, with one text. *)
let test_plan_coercion_failure () =
  let s = fmt "format S { int p; }" and t = fmt "enum E { A = 0, B = 1 } format T { E e; }" in
  let specs = [ Morph.xform ~target:t "old.e = new.p;" ] in
  let value p = Value.record [ ("p", Value.Int p) ] in
  List.iter
    (fun (engine, kind) ->
       let p, shape = compile_plan ~engine ~source:s ~target:t specs in
       Alcotest.(check string) "plan" kind shape;
       Alcotest.(check string) (kind ^ ": in range") "ok {e=B(1)}"
         (plan_outcome (Morph.Plan.run p) (Wire.encode ~format_id:1 s (value 1)));
       List.iter
         (fun (entry, o) ->
            Alcotest.(check string) (kind ^ ": " ^ entry)
              "transform: no case of enum E has value 5" o)
         [ ("run", plan_outcome (Morph.Plan.run p) (Wire.encode ~format_id:1 s (value 5)));
           ("transform", plan_outcome (Morph.Plan.transform p) (value 5)) ])
    [ (Morph.Xform.Compiled, "fused, 1 hop"); (Morph.Xform.Interpreted, "staged, 1 hop") ]

(* A structural conversion that meets a value of the wrong shape is a
   transform failure too: the plan builds its conversion on the first
   [transform] and guards it as it guards a chain. *)
let test_plan_conversion_failure () =
  let s = fmt "format S { int a; string s; }" and t = fmt "format T { float a; }" in
  let p, shape = compile_plan ~source:s ~target:t [] in
  Alcotest.(check string) "plan" "fused" shape;
  Alcotest.check Helpers.value "well shaped"
    (Value.record [ ("a", Value.Float 3.) ])
    (Morph.Plan.transform p (Value.record [ ("a", Value.Int 3); ("s", Value.String "x") ]));
  let o =
    plan_outcome (Morph.Plan.transform p)
      (Value.record [ ("a", Value.String "3"); ("s", Value.String "x") ])
  in
  Alcotest.(check bool) o true (String.starts_with ~prefix:"transform: " o)

let test_morph_to_facade () =
  let out =
    Helpers.check_ok_err
      (Morph.morph_to Helpers.response_v2_meta ~target:Helpers.response_v1
         (Helpers.sample_v2 4))
  in
  Alcotest.(check bool) "conforms" true
    (Value.conforms (Ptype.Record Helpers.response_v1) out);
  (match Morph.morph_to (Meta.plain Helpers.response_v2)
           ~target:(fmt "format Unrelated { int q; }") (Helpers.sample_v2 1) with
   | Ok _ -> Alcotest.fail "expected failure"
   | Error _ -> ())

let test_cross_name_morphing () =
  (* a transformation target may carry a different format name: the
     transformation itself declares the role equivalence that names
     normally imply *)
  let incoming = fmt "format TelemetryV2 { int user_load; int sys_load; }" in
  let registered = fmt "format Telemetry { int load; }" in
  let meta =
    Morph.meta incoming
      ~xforms:[ Morph.xform ~target:registered "old.load = new.user_load + new.sys_load;" ]
  in
  let r, got = make_receiver registered in
  (match Receiver.deliver r meta
           (Value.record [ ("user_load", Value.Int 2); ("sys_load", Value.Int 3) ]) with
   | Receiver.Delivered { via = Receiver.Morphed _; _ } -> ()
   | o -> Alcotest.failf "expected Morphed, got %a" Receiver.pp_outcome o);
  Alcotest.(check int) "summed" 5 (Value.to_int (Value.get_field (List.hd !got) "load"));
  (* without the transformation, different names still reject *)
  let r2, _ = make_receiver registered in
  (match Receiver.deliver r2 (Meta.plain incoming)
           (Value.record [ ("user_load", Value.Int 1); ("sys_load", Value.Int 1) ]) with
   | Receiver.Rejected _ -> ()
   | o -> Alcotest.failf "expected rejection, got %a" Receiver.pp_outcome o)

let test_explain () =
  let r, _ = make_receiver Helpers.response_v1 in
  let s1 = Receiver.explain r Helpers.response_v2_meta in
  Alcotest.(check string) "explains morphing and names the plan"
    "deliver to ChannelOpenResponse via morphed(ChannelOpenResponse) [fused, 1 hop]" s1;
  let s2 = Receiver.explain r (Meta.plain (fmt "format Unrelated { int q; }")) in
  Alcotest.(check bool) "explains rejection" true (Helpers.contains s2 "reject");
  let a = fmt "format R { int x; string s; }" in
  let b = fmt "format R { string s; int x; }" in
  let rb, _ = make_receiver b in
  Alcotest.(check string) "a structural conversion fuses"
    "deliver to R via reordered [fused]" (Receiver.explain rb (Meta.plain a));
  Alcotest.(check string) "an exact match fuses"
    "deliver to R via exact [fused]" (Receiver.explain rb (Meta.plain b));
  let chain =
    let v2 = fmt "format R { string s; int x; int y; }" in
    let v3 = fmt "format R { string s; int x; int y; int z; }" in
    Morph.meta v3
      ~xforms:
        [ Morph.xform ~target:v2 "old.s = new.s; old.x = new.x; old.y = new.y;";
          Morph.xform ~source:v2 ~target:b "old.s = new.s; old.x = new.x + new.y;" ]
  in
  Alcotest.(check string) "chain hops counted"
    "deliver to R via morphed(R) [staged, 2 hops]" (Receiver.explain rb chain);
  (* explain neither populates the cache nor compiles a wire plan *)
  let ctx = Ctx.create () in
  let rc = Receiver.create ~config:(Receiver.Config.v ~ctx ()) () in
  Receiver.register rc b ignore;
  ignore (Receiver.explain rc (Meta.plain a) : string);
  ignore (Receiver.explain rc chain : string);
  Alcotest.(check int) "no wire plan compiled" 0
    (Codec.plan_cache_size ~cache:(Ctx.codecs ctx));
  ignore (Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 1));
  Alcotest.(check int) "still a cold path after explain" 1
    (Receiver.stats r).Receiver.cold_paths

(* A lineage of straight-line hops (Fig. 1's shape): v1 retypes [load]
   from int to float, v2 renames [tag] to [label], v3 adds [extra].  Each
   hop is plain moves, so the receiver composes them into one fused plan. *)
let ev0 = fmt "format Ev { int id; int load; string tag; }"
let ev1 = fmt "format Ev { int id; float load; string tag; }"
let ev2 = fmt "format Ev { int id; float load; string label; }"
let ev3 = fmt "format Ev { int id; float load; string label; int extra; }"

let ev_meta =
  Morph.meta ev3
    ~xforms:
      [ Morph.xform ~target:ev2 "old.id = new.id; old.load = new.load; old.label = new.label;";
        Morph.xform ~source:ev2 ~target:ev1
          "old.id = new.id; old.load = new.load; old.tag = new.label;";
        Morph.xform ~source:ev1 ~target:ev0
          "old.id = new.id; old.load = new.load; old.tag = new.tag;" ]

let ev_value i =
  Value.record
    [ ("id", Value.Int i); ("load", Value.Float (float_of_int i +. 0.75));
      ("label", Value.String "x"); ("extra", Value.Int 9) ]

let test_collapsed_chain () =
  let metrics = Obs.create () in
  let compiles = Obs.create () in
  let ctx = Ctx.create ~metrics:compiles () in
  let r = Receiver.create ~config:(Receiver.Config.v ~metrics ~ctx ()) () in
  let got = ref [] in
  Receiver.register r ev0 (fun v -> got := v :: !got);
  Alcotest.(check string) "the chain collapses into one fused plan"
    "deliver to Ev via morphed(Ev) [fused, 3 hops]" (Receiver.explain r ev_meta);
  Alcotest.(check int) "explain compiles no codec plan" 0
    (Obs.Counter.value compiles "codec.plan_compiles");
  List.iter
    (fun (endian, i) ->
       let v = ev_value i in
       (match Receiver.deliver_wire r ev_meta (Wire.encode ~endian ~format_id:1 ev3 v) with
        | Receiver.Delivered { via = Receiver.Morphed "Ev"; _ } -> ()
        | o -> Alcotest.failf "expected a morphed delivery, got %a" Receiver.pp_outcome o);
       let want =
         Helpers.check_ok_err
           (Morph.morph_to ~engine:Morph.Xform.Interpreted ev_meta ~target:ev0 v)
       in
       Alcotest.check Helpers.value "equals the interpretive reference" want (List.hd !got))
    [ (Wire.Little, 1); (Wire.Big, 2); (Wire.Little, 3); (Wire.Big, 4); (Wire.Little, 5) ];
  Alcotest.check Helpers.value "float load truncated, tag from label"
    (Value.record [ ("id", Value.Int 5); ("load", Value.Int 5); ("tag", Value.String "x") ])
    (List.hd !got);
  Alcotest.(check int) "one fused plan compiled per byte order" 2
    (Obs.Counter.value compiles "codec.plan_compiles");
  Alcotest.(check int) "both timed" 2 (Obs.Histogram.count compiles "codec.compile_ns");
  Alcotest.(check int) "five fused deliveries" 5 (Obs.Histogram.count metrics "codec.fused_ns");
  Alcotest.(check int) "no staged delivery" 0 (Obs.Histogram.count metrics "codec.staged_ns");
  Alcotest.(check int) "no hop-by-hop morph" 0 (Obs.Histogram.count metrics "receiver.morph_ns");
  (* a collapsed delivery builds no intermediate record: six hops cost
     what one does *)
  let rev k =
    fmt
      (Printf.sprintf "format Lineage { int n; int payload[n]; %s }"
         (String.concat " " (List.init (k + 1) (fun i -> Printf.sprintf "int g%d;" i))))
  in
  let hop k =
    Morph.xform ~source:(rev (k + 1)) ~target:(rev k)
      (String.concat " "
         ([ "old.n = new.n;"; "old.payload = new.payload;";
            Printf.sprintf "old.g0 = new.g%d;" (k + 1) ]
          @ List.init k (fun i -> Printf.sprintf "old.g%d = new.g%d;" (i + 1) (i + 1))))
  in
  let per_delivery depth =
    let specs =
      List.init depth (fun i ->
          let x = hop (depth - 1 - i) in
          if i = 0 then { x with Meta.source = None } else x)
    in
    let meta = Morph.meta (rev depth) ~xforms:specs in
    let message =
      Wire.encode ~format_id:1 (rev depth)
        (Value.record
           (("n", Value.Int 8)
            :: ("payload", Value.array_of_list (List.init 8 (fun i -> Value.Int i)))
            :: List.init (depth + 1) (fun i -> (Printf.sprintf "g%d" i, Value.Int i))))
    in
    let r = Receiver.create () in
    Receiver.register r (rev 0) ignore;
    Alcotest.(check string) "collapsed"
      (Printf.sprintf "deliver to Lineage via morphed(Lineage) [fused, %d hop%s]" depth
         (if depth = 1 then "" else "s"))
      (Receiver.explain r meta);
    Helpers.alloc_per_call ~reps:100 (fun () ->
        match Receiver.deliver_wire r meta message with
        | Receiver.Delivered _ -> ()
        | o -> Alcotest.failf "expected delivery, got %a" Receiver.pp_outcome o)
  in
  let one = per_delivery 1 and six = per_delivery 6 in
  if Float.abs (six -. one) > 16. then
    Alcotest.failf "a 6-hop delivery allocates %.0f B against %.0f B for 1 hop" six one

(* A wire message of [format] carrying [v], with [extra] bytes after its
   payload under a header whose length still fits. *)
let with_trailing ~format_id format v extra =
  let m = Wire.encode ~format_id format v ^ extra in
  let b = Bytes.of_string m in
  Bytes.set_int32_le b 12 (Int32.of_int (String.length m - Codec.header_size));
  Bytes.to_string b

let test_collapsed_failures_classified () =
  (* the last hop coerces an int into an enum, which fails on a value no
     case carries: a transformation failure, counted against the breaker,
     whether the chain runs fused or hop by hop — and a decode failure
     when the message itself is malformed, even where its value would
     fail the coercion too *)
  let s0 = fmt "enum E { A = 0, B = 1 } format S { E e; }" in
  let s1 = fmt "format S { int n; }" in
  let s2 = fmt "format S { int n; int pad; }" in
  let meta =
    Morph.meta s2
      ~xforms:[ Morph.xform ~target:s1 "old.n = new.n;";
                Morph.xform ~source:s1 ~target:s0 "old.e = new.n;" ]
  in
  let r = Receiver.create () in
  let got = ref [] in
  Receiver.register r s0 (fun v -> got := v :: !got);
  let message n = Wire.encode ~format_id:1 s2 (Value.record [ ("n", Value.Int n); ("pad", Value.Int 0) ]) in
  let outcome o = Fmt.str "%a" Receiver.pp_outcome o in
  let check_outcome what want o = Alcotest.(check string) what want (outcome o) in
  let state () =
    match Receiver.breaker_state r meta with
    | Some Morph.Breaker.Closed -> "closed"
    | Some Open -> "open"
    | Some Half_open -> "half-open"
    | None -> "none"
  in
  check_outcome "0 delivers" "delivered to S via morphed(S)" (Receiver.deliver_wire r meta (message 0));
  check_outcome "1 delivers" "delivered to S via morphed(S)" (Receiver.deliver_wire r meta (message 1));
  Alcotest.check Helpers.value "as case B" (Value.record [ ("e", Value.Enum ("B", 1)) ]) (List.hd !got);
  check_outcome "7 fails the coercion" "rejected: transformation failed: no case of enum E has value 7"
    (Receiver.deliver_wire r meta (message 7));
  Alcotest.(check int) "counted as a transformation failure" 1
    (Receiver.stats r).Receiver.transform_failures;
  (match
     Receiver.deliver_wire r meta
       (with_trailing ~format_id:1 s2
          (Value.record [ ("n", Value.Int 7); ("pad", Value.Int 0) ]) "\001\002\003\004")
   with
   | Receiver.Rejected reason when Helpers.contains reason "wire decode failed: " -> ()
   | o -> Alcotest.failf "trailing bytes: expected a decode failure, got %a" Receiver.pp_outcome o);
  Alcotest.(check int) "a decode failure is no transformation failure" 1
    (Receiver.stats r).Receiver.transform_failures;
  Alcotest.(check string) "breaker still closed" "closed" (state ());
  ignore (Receiver.deliver_wire r meta (message 7) : Receiver.outcome);
  Alcotest.(check string) "two failures: still closed" "closed" (state ());
  check_outcome "third consecutive failure" "rejected: transformation failed: no case of enum E has value 7"
    (Receiver.deliver_wire r meta (message 7));
  Alcotest.(check string) "quarantined" "open" (state ());
  check_outcome "quarantined pipeline rejects"
    "rejected: quarantined after 3 consecutive transformation failures"
    (Receiver.deliver_wire r meta (message 0));
  let s = Receiver.stats r in
  Alcotest.(check (list int)) "delivered, rejected, failures, quarantined"
    [ 2; 5; 3; 1 ]
    [ s.Receiver.delivered; s.rejected; s.transform_failures; s.quarantined ];
  (* Fig. 5's loops collapse; an [else] keeps a chain hop by hop *)
  let r, _ = make_receiver Helpers.response_v1 in
  Alcotest.(check string) "Fig. 5 fuses"
    "deliver to ChannelOpenResponse via morphed(ChannelOpenResponse) [fused, 1 hop]"
    (Receiver.explain r Helpers.response_v2_meta);
  let r, _ = make_receiver Echo.Wire_formats.event_msg in
  Alcotest.(check string) "an else branch stays staged"
    "deliver to EventMsg via morphed(EventMsg) [staged, 1 hop]"
    (Receiver.explain r Echo.Wire_formats.event_v2_meta)

let test_check_meta () =
  Helpers.check_ok_err (Morph.check_meta Helpers.response_v2_meta);
  let bad =
    { Meta.body = Helpers.response_v2;
      xforms = [ { Meta.source = None; target = Helpers.response_v1; code = "old.nope = 1;" } ] }
  in
  (match Morph.check_meta bad with
   | Ok () -> Alcotest.fail "expected check_meta failure"
   | Error _ -> ())

(* --- quarantine of repeatedly failing transformations --------------------- *)

let quarantine_meta registered =
  let incoming = fmt "format Telemetry2 { int num; int den; }" in
  Morph.meta incoming
    ~xforms:[ Morph.xform ~target:registered "old.q = new.num / new.den;" ]

let sample ~num ~den =
  Value.record [ ("num", Value.Int num); ("den", Value.Int den) ]

let test_quarantine_after_repeated_failures () =
  let registered = fmt "format Telemetry { int q; }" in
  let meta = quarantine_meta registered in
  let r, got = make_receiver registered in
  let expect_reject needle v =
    match Receiver.deliver r meta v with
    | Receiver.Rejected reason ->
      Alcotest.(check bool) (Fmt.str "mentions %S: %s" needle reason) true
        (Helpers.contains reason needle)
    | o -> Alcotest.failf "expected rejection, got %a" Receiver.pp_outcome o
  in
  (* three consecutive run-time failures: each rejects as a transformation
     failure; the third trips the quarantine *)
  expect_reject "transformation failed" (sample ~num:1 ~den:0);
  expect_reject "transformation failed" (sample ~num:2 ~den:0);
  expect_reject "transformation failed" (sample ~num:3 ~den:0);
  let s = Receiver.stats r in
  Alcotest.(check int) "failures counted" 3 s.Receiver.transform_failures;
  Alcotest.(check int) "quarantined once" 1 s.Receiver.quarantined;
  (* from now on the open breaker turns even good values away, on the
     value path and the wire path alike — and no re-planning happens: the
     poisoned pipeline stays cached *)
  let good = sample ~num:4 ~den:2 in
  List.iter
    (fun (path, o) ->
       match o with
       | Receiver.Rejected reason ->
         Alcotest.(check string) path
           "quarantined after 3 consecutive transformation failures" reason
       | o -> Alcotest.failf "%s: expected rejection, got %a" path Receiver.pp_outcome o)
    [ ("value path", Receiver.deliver r meta good);
      ("wire path", Receiver.deliver_wire r meta (Wire.encode ~format_id:1 meta.Meta.body good)) ];
  (match Receiver.breaker_state r meta with
   | Some Morph.Breaker.Open -> ()
   | _ -> Alcotest.fail "the breaker should stay open without a cooldown");
  Alcotest.(check int) "no handler deliveries" 0 (List.length !got);
  Alcotest.(check int) "planned exactly once" 1 s.Receiver.cold_paths

let test_quarantine_success_resets_streak () =
  let registered = fmt "format Telemetry { int q; }" in
  let meta = quarantine_meta registered in
  let r, got = make_receiver registered in
  (* two failures, then a success, then two more failures: the streak never
     reaches three, so the pipeline survives *)
  ignore (Receiver.deliver r meta (sample ~num:1 ~den:0));
  ignore (Receiver.deliver r meta (sample ~num:2 ~den:0));
  (match Receiver.deliver r meta (sample ~num:6 ~den:3) with
   | Receiver.Delivered _ -> ()
   | o -> Alcotest.failf "expected delivery, got %a" Receiver.pp_outcome o);
  ignore (Receiver.deliver r meta (sample ~num:4 ~den:0));
  ignore (Receiver.deliver r meta (sample ~num:5 ~den:0));
  let s = Receiver.stats r in
  Alcotest.(check int) "four failures" 4 s.Receiver.transform_failures;
  Alcotest.(check int) "never quarantined" 0 s.Receiver.quarantined;
  (match Receiver.deliver r meta (sample ~num:8 ~den:4) with
   | Receiver.Delivered _ -> ()
   | o -> Alcotest.failf "still delivering, got %a" Receiver.pp_outcome o);
  Alcotest.(check int) "both good values arrived" 2 (List.length !got);
  Alcotest.(check int) "quotient" 2 (Value.to_int (Value.get_field (List.hd !got) "q"))

let test_quarantine_third_failure_trips () =
  let registered = fmt "format Telemetry { int q; }" in
  let meta = quarantine_meta registered in
  let r, _ = make_receiver registered in
  ignore (Receiver.deliver r meta (sample ~num:1 ~den:0));
  ignore (Receiver.deliver r meta (sample ~num:2 ~den:0));
  Alcotest.(check int) "two strikes are not enough" 0
    (Receiver.stats r).Receiver.quarantined;
  ignore (Receiver.deliver r meta (sample ~num:3 ~den:0));
  Alcotest.(check int) "the third trips" 1 (Receiver.stats r).Receiver.quarantined

(* Each pipeline has its own breaker: quarantining one sender's format
   leaves another format for the same registered target delivering. *)
let test_quarantine_is_per_pipeline () =
  let registered = fmt "format Telemetry { int q; }" in
  let poisoned = quarantine_meta registered in
  let healthy = Meta.plain (fmt "format Telemetry { int q; int extra; }") in
  let r, got = make_receiver registered in
  for num = 1 to 3 do
    ignore (Receiver.deliver r poisoned (sample ~num ~den:0))
  done;
  Alcotest.(check int) "one pipeline tripped" 1 (Receiver.stats r).Receiver.quarantined;
  (match
     Receiver.deliver r healthy
       (Value.record [ ("q", Value.Int 5); ("extra", Value.Int 0) ])
   with
   | Receiver.Delivered _ -> ()
   | o -> Alcotest.failf "the healthy format should deliver, got %a" Receiver.pp_outcome o);
  (match Receiver.breaker_state r poisoned, Receiver.breaker_state r healthy with
   | Some Morph.Breaker.Open, Some Morph.Breaker.Closed -> ()
   | _ -> Alcotest.fail "expected the poisoned breaker open and the healthy one closed");
  Alcotest.(check int) "q arrived" 5 (Value.to_int (Value.get_field (List.hd !got) "q"))

(* A trip is visible outside the receiver: the [receiver.*] counters count
   it once (deliveries turned away later are rejections, not new trips),
   and a flight recorder captures one "quarantine" incident. *)
let test_quarantine_counted_and_captured () =
  let registered = fmt "format Telemetry { int q; }" in
  let meta = quarantine_meta registered in
  let metrics = Obs.create () in
  let flight = Obs.Flight.create metrics in
  let r = Receiver.create ~config:(Receiver.Config.v ~metrics ~flight ()) () in
  Receiver.register r registered (fun _ -> ());
  ignore (Receiver.deliver r meta (sample ~num:1 ~den:0));
  ignore (Receiver.deliver r meta (sample ~num:2 ~den:0));
  ignore (Receiver.deliver r meta (sample ~num:3 ~den:0));
  ignore (Receiver.deliver r meta (sample ~num:6 ~den:3));
  ignore (Receiver.deliver r meta (sample ~num:8 ~den:4));
  let counter = Obs.Counter.value metrics in
  Alcotest.(check int) "three transformation failures" 3 (counter "receiver.transform_failures");
  Alcotest.(check int) "one trip" 1 (counter "receiver.quarantined");
  Alcotest.(check int) "five rejections" 5 (counter "receiver.rejected");
  Alcotest.(check int) "nothing delivered" 0 (counter "receiver.delivered");
  match Obs.Flight.incidents flight with
  | [ inc ] ->
    Alcotest.(check string) "incident kind" "quarantine" inc.Obs.Flight.kind;
    Alcotest.(check bool) "the reason names the streak" true
      (Helpers.contains inc.Obs.Flight.reason
         "quarantined after 3 consecutive transformation failures")
  | incs -> Alcotest.failf "expected one incident, got %d" (List.length incs)

(* Deliveries an open breaker turns away take Algorithm 2's fallback like
   unmatched formats do: with a default handler set they reach it, with
   the sender's value, instead of being rejected. *)
let test_quarantine_turns_away_to_default () =
  let registered = fmt "format Telemetry { int q; }" in
  let meta = quarantine_meta registered in
  let r, got = make_receiver registered in
  let defaulted = ref [] in
  Receiver.set_default_handler r (fun _ v -> defaulted := v :: !defaulted);
  for num = 1 to 3 do
    match Receiver.deliver r meta (sample ~num ~den:0) with
    | Receiver.Rejected _ -> ()
    | o -> Alcotest.failf "a failed transformation rejects, got %a" Receiver.pp_outcome o
  done;
  let good = sample ~num:6 ~den:3 in
  (match Receiver.deliver r meta good with
   | Receiver.Defaulted -> ()
   | o -> Alcotest.failf "expected the default handler, got %a" Receiver.pp_outcome o);
  Alcotest.(check (list Helpers.value)) "the sender's value reached it" [ good ] !defaulted;
  Alcotest.(check int) "the registered handler never ran" 0 (List.length !got);
  let s = Receiver.stats r in
  Alcotest.(check int) "counted as defaulted" 1 s.Receiver.defaulted;
  Alcotest.(check int) "still one trip" 1 s.Receiver.quarantined

(* Every Accept delivery passes the same breaker: a fused wire delivery
   (a structural conversion decoded straight into the target) is refused
   once the circuit is open. *)
let test_quarantine_gates_fused_wire () =
  let target = fmt "format Q { int q; int a; int b; int c; int d; int e; }" in
  let body = fmt "format Q { uint q; int a; int b; int c; int d; int e; int extra; }" in
  let meta = Meta.plain body in
  let r = Receiver.create () in
  let got = ref 0 in
  Receiver.register r target (fun _ -> incr got);
  let value q =
    Value.record
      (("q", q)
       :: List.map (fun f -> (f, Value.Int 1)) [ "a"; "b"; "c"; "d"; "e"; "extra" ])
  in
  let good = value (Value.Uint 7) in
  let message = Wire.encode ~format_id:1 body good in
  (* while the circuit is closed the wire delivery runs the fused plan *)
  (match Receiver.deliver_wire r meta message with
   | Receiver.Delivered { via = Receiver.Converted; _ } -> ()
   | o -> Alcotest.failf "expected delivery via converted, got %a" Receiver.pp_outcome o);
  Alcotest.(check int) "delivered once" 1 !got;
  (* a string where the uint belongs fails the coercion: three trip it *)
  for _ = 1 to 3 do
    ignore (Receiver.deliver r meta (value (Value.String "x")))
  done;
  Alcotest.(check int) "tripped" 1 (Receiver.stats r).Receiver.quarantined;
  let expect_quarantined o =
    match o with
    | Receiver.Rejected reason ->
      Alcotest.(check bool) "mentions quarantine" true (Helpers.contains reason "quarantined")
    | o -> Alcotest.failf "expected a quarantine rejection, got %a" Receiver.pp_outcome o
  in
  expect_quarantined (Receiver.deliver r meta good);
  expect_quarantined (Receiver.deliver_wire r meta message);
  expect_quarantined (Receiver.deliver_wire r meta message);
  Alcotest.(check int) "nothing delivered after the trip" 1 !got;
  (match Receiver.breaker_state r meta with
   | Some Morph.Breaker.Open -> ()
   | _ -> Alcotest.fail "the refused wire deliveries must leave the breaker open")

let test_delivery_probe_observes_outcomes () =
  let registered = fmt "format Telemetry { int q; }" in
  let meta = quarantine_meta registered in
  let r, _ = make_receiver registered in
  let seen = ref [] in
  Receiver.set_delivery_probe r
    (Some (fun v o -> seen := (Option.is_some v, o) :: !seen));
  ignore (Receiver.deliver r meta (sample ~num:6 ~den:3));
  ignore (Receiver.deliver r meta (sample ~num:1 ~den:0));
  (* a message that fails wire decoding is a processed message too *)
  let wire = Wire.encode ~format_id:1 meta.Meta.body (sample ~num:6 ~den:3) in
  ignore (Receiver.deliver_wire r meta (String.sub wire 0 (String.length wire - 2)));
  (match List.rev !seen with
   | [ (true, Receiver.Delivered _); (false, Receiver.Rejected _);
       (false, Receiver.Rejected _) ] -> ()
   | l -> Alcotest.failf "unexpected probe trace (%d entries)" (List.length l));
  (* clearing the probe stops observation *)
  Receiver.set_delivery_probe r None;
  ignore (Receiver.deliver r meta (sample ~num:6 ~den:3));
  Alcotest.(check int) "no further entries" 3 (List.length !seen)

let test_metrics_counters () =
  (* a receiver built over a live registry reports the same cache
     behaviour through Obs counters as through [stats] *)
  let metrics = Obs.create () in
  let r = Receiver.create ~config:(Receiver.Config.v ~metrics ()) () in
  Receiver.register r Helpers.response_v1 (fun _ -> ());
  for _ = 1 to 10 do
    ignore (Receiver.deliver r Helpers.response_v2_meta (Helpers.sample_v2 1))
  done;
  Alcotest.(check int) "one miss" 1 (Obs.Counter.value metrics "receiver.cache_misses");
  Alcotest.(check int) "nine hits" 9 (Obs.Counter.value metrics "receiver.cache_hits");
  Alcotest.(check int) "all delivered" 10
    (Obs.Counter.value metrics "receiver.delivered");
  Alcotest.(check int) "nothing rejected" 0
    (Obs.Counter.value metrics "receiver.rejected");
  Alcotest.(check bool) "morph latency observed" true
    (Obs.Histogram.count metrics "receiver.morph_ns" > 0);
  Alcotest.(check int) "mismatch ratio observed on the cold path" 1
    (Obs.Histogram.count metrics "receiver.mismatch_ratio");
  (* counters agree with the receiver's own stats record *)
  let s = Receiver.stats r in
  Alcotest.(check int) "stats agree on hits" s.Receiver.cache_hits
    (Obs.Counter.value metrics "receiver.cache_hits")

(* --- the delivery's own telemetry ------------------------------------------ *)

(* lineage-small's shapes: morphbench's lineage population (4 versions,
   lineage seed 42), whose head version is 3 hops from the base *)
let lineage_head () =
  let pop = Loadgen.Population.make ~versions:4 ~seed:42 () in
  let vs = Loadgen.Population.versions pop in
  (Loadgen.Population.base pop, vs.(Array.length vs - 1))

(* A receiver recording into a live registry, as every benchmark
   workload's does. *)
let traced_receiver ?(handler = ignore) target =
  let reg = Obs.create () in
  let config = Receiver.Config.v ~metrics:reg ~ctx:(Ctx.create ~metrics:reg ()) () in
  let r = Receiver.create ~config () in
  Receiver.register r target handler;
  (r, reg)

let deliver_head r (head : Loadgen.Population.version) =
  match Receiver.deliver_wire r head.meta head.bytes with
  | Receiver.Delivered _ -> ()
  | o -> Alcotest.failf "expected a delivery, got %a" Receiver.pp_outcome o

(* A warm fused delivery reads the clock once per boundary: before the
   decode, after it (also the span's start), and at the span's end; and
   [codec.fused_ns] covers the decode alone. *)
let test_fused_delivery_clock_reads () =
  let base, head = lineage_head () in
  let r, reg = traced_receiver base in
  deliver_head r head;
  let reads = ref 0 in
  Obs.set_registry_clock reg (fun () ->
      incr reads;
      float_of_int (!reads * 1000));
  Obs.Trace.clear reg;
  let fused0 = Obs.Histogram.sum reg "codec.fused_ns" in
  deliver_head r head;
  Alcotest.(check int) "three clock reads" 3 !reads;
  Alcotest.(check (float 0.)) "codec.fused_ns is the decode alone" 1000.
    (Obs.Histogram.sum reg "codec.fused_ns" -. fused0);
  match Obs.Trace.spans reg with
  | [ s ] ->
    Alcotest.(check string) "the delivery span" "morph.deliver" s.Obs.Trace.name;
    Alcotest.(check (float 0.)) "the span starts at the decode's end" 2000.
      s.Obs.Trace.start_ns;
    Alcotest.(check (float 0.)) "and ends at the last read" 3000. s.Obs.Trace.end_ns
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

(* A warm staged delivery (ECho 2.0's event rollback) reads the clock once
   per boundary: before the decode, the staged decode's own two reads
   ([wire.decode_ns]), after the decode (the span's and the morph's
   start), after the transform (the end of [receiver.morph_ns] and of
   [codec.staged_ns]), and at the span's end.  So [codec.staged_ns] stops
   where [codec.fused_ns] does, before the handler. *)
let test_staged_delivery_clock_reads () =
  let clock = ref 0. and reads = ref 0 in
  let handler _ = clock := !clock +. 1e6 in
  let r, reg = traced_receiver ~handler Echo.Wire_formats.event_msg in
  let message =
    Wire.encode ~format_id:1 Echo.Wire_formats.event_msg_v2
      (Echo.Wire_formats.event_v2_value ~channel:"c" ~seq:1 ~origin:("h", 1) ~priority:2
         ~payload:"p")
  in
  let deliver () =
    match Receiver.deliver_wire r Echo.Wire_formats.event_v2_meta message with
    | Receiver.Delivered _ -> ()
    | o -> Alcotest.failf "expected a delivery, got %a" Receiver.pp_outcome o
  in
  deliver ();
  clock := 0.;
  Obs.set_registry_clock reg (fun () ->
      incr reads;
      clock := !clock +. 1000.;
      !clock);
  Obs.Trace.clear reg;
  let staged0 = Obs.Histogram.sum reg "codec.staged_ns"
  and morph0 = Obs.Histogram.sum reg "receiver.morph_ns" in
  deliver ();
  Alcotest.(check int) "six clock reads" 6 !reads;
  Alcotest.(check (float 0.)) "codec.staged_ns ends with the transform" 4000.
    (Obs.Histogram.sum reg "codec.staged_ns" -. staged0);
  Alcotest.(check (float 0.)) "receiver.morph_ns is the transform alone" 1000.
    (Obs.Histogram.sum reg "receiver.morph_ns" -. morph0);
  match Obs.Trace.spans reg with
  | [ s ] ->
    Alcotest.(check string) "the delivery span" "morph.deliver" s.Obs.Trace.name;
    Alcotest.(check (float 0.)) "the span starts at the decode's end" 4000. s.Obs.Trace.start_ns;
    Alcotest.(check (float 0.)) "and ends after the handler" 1_006_000. s.Obs.Trace.end_ns
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

(* A traced delivery keeps nothing alive: once the trace ring has wrapped,
   each span it buffers is scalars plus the plan's own attribute list, so
   a minor collection promotes next to nothing. *)
let test_traced_delivery_promotes_nothing () =
  let base, head = lineage_head () in
  let r, _ = traced_receiver base in
  let per =
    Helpers.promoted_words_per_call ~warm:5_000 ~reps:20_000 (fun () -> deliver_head r head)
  in
  if per >= 1. then
    Alcotest.failf "a traced delivery promotes %.2f words to the major heap" per

(* An exact match is a fused plan like any other: its wire delivery is
   timed as [codec.fused_ns], with no staged decode and no morph. *)
let test_exact_wire_delivery_fuses () =
  let got = ref [] in
  let r, reg = traced_receiver ~handler:(fun v -> got := v :: !got) Helpers.response_v2 in
  let v = Helpers.sample_v2 2 in
  (match
     Receiver.deliver_wire r (Meta.plain Helpers.response_v2)
       (Wire.encode ~format_id:1 Helpers.response_v2 v)
   with
   | Receiver.Delivered { via = Receiver.Exact; _ } -> ()
   | o -> Alcotest.failf "expected an exact delivery, got %a" Receiver.pp_outcome o);
  Alcotest.check Helpers.value "value untouched" v (List.hd !got);
  Alcotest.(check int) "one fused delivery" 1 (Obs.Histogram.count reg "codec.fused_ns");
  Alcotest.(check int) "no staged delivery" 0 (Obs.Histogram.count reg "codec.staged_ns");
  Alcotest.(check int) "no staged decode" 0 (Obs.Counter.value reg "wire.decodes");
  Alcotest.(check int) "no morph" 0 (Obs.Histogram.count reg "receiver.morph_ns")

let last_span_attrs reg =
  match List.rev (Obs.Trace.spans reg) with
  | s :: _ when s.Obs.Trace.name = "morph.deliver" -> s.Obs.Trace.attrs
  | _ -> Alcotest.fail "expected a morph.deliver span last"

let attrs_t = Alcotest.(list (pair string string))

(* The exact [morph.deliver] attributes, in order, on each kind of
   delivery. *)
let test_delivery_span_attrs () =
  (* lineage-small's head: a collapsed 3-hop chain, fused *)
  let base, head = lineage_head () in
  let r, reg = traced_receiver base in
  let provenance =
    [ ("source", "LoadEvent"); ("target", "LoadEvent"); ("via", "morphed(LoadEvent)");
      ("chain_hops", "3"); ("mismatch_ratio", "0.000") ]
  in
  deliver_head r head;
  Alcotest.check attrs_t "cold fused"
    (("cache", "miss") :: ("ecode", "compile") :: ("convert", "fused") :: provenance)
    (last_span_attrs reg);
  deliver_head r head;
  Alcotest.check attrs_t "warm fused"
    (("cache", "hit") :: ("ecode", "reuse") :: ("convert", "fused") :: provenance)
    (last_span_attrs reg);
  (* channel-ecode's shape: Fig. 5's loops collapse, so it runs fused *)
  let r, reg = traced_receiver Helpers.response_v1 in
  let message = Wire.encode ~format_id:1 Helpers.response_v2 (Helpers.sample_v2 3) in
  for _ = 1 to 2 do
    match Receiver.deliver_wire r Helpers.response_v2_meta message with
    | Receiver.Delivered _ -> ()
    | o -> Alcotest.failf "expected a delivery, got %a" Receiver.pp_outcome o
  done;
  Alcotest.check attrs_t "warm fused Fig. 5 chain"
    [ ("cache", "hit"); ("ecode", "reuse"); ("convert", "fused"); ("source", "ChannelOpenResponse");
      ("target", "ChannelOpenResponse"); ("via", "morphed(ChannelOpenResponse)");
      ("chain_hops", "1"); ("mismatch_ratio", "0.000") ]
    (last_span_attrs reg);
  (* an [else] branch keeps ECho 2.0's event rollback staged *)
  let r, reg = traced_receiver Echo.Wire_formats.event_msg in
  let message =
    Wire.encode ~format_id:1 Echo.Wire_formats.event_msg_v2
      (Echo.Wire_formats.event_v2_value ~channel:"c" ~seq:1 ~origin:("h", 1) ~priority:2
         ~payload:"p")
  in
  for _ = 1 to 2 do
    match Receiver.deliver_wire r Echo.Wire_formats.event_v2_meta message with
    | Receiver.Delivered _ -> ()
    | o -> Alcotest.failf "expected a delivery, got %a" Receiver.pp_outcome o
  done;
  Alcotest.check attrs_t "warm staged chain"
    [ ("cache", "hit"); ("ecode", "reuse"); ("source", "EventMsg"); ("target", "EventMsg");
      ("via", "morphed(EventMsg)"); ("chain_hops", "1"); ("mismatch_ratio", "0.000") ]
    (last_span_attrs reg);
  (* a Reject pipeline carries only the cache outcome *)
  let r, reg = traced_receiver (fmt "format Other { int x; }") in
  let a = fmt "format A { int x; }" in
  let message = Wire.encode ~format_id:1 a (Value.record [ ("x", Value.Int 1) ]) in
  List.iter
    (fun cache ->
       (match Receiver.deliver_wire r (Meta.plain a) message with
        | Receiver.Rejected _ -> ()
        | o -> Alcotest.failf "expected a rejection, got %a" Receiver.pp_outcome o);
       Alcotest.check attrs_t ("reject, cache " ^ cache) [ ("cache", cache) ]
         (last_span_attrs reg))
    [ "miss"; "hit" ]

(* Robustness: whatever formats arrive, deliver returns an outcome — it
   never raises, even when the incoming format shares a name but nothing
   else with the registered one. *)
let prop_deliver_total =
  QCheck.Test.make ~name:"deliver never raises on arbitrary format pairs" ~count:200
    QCheck.(pair Helpers.arb_format_and_value Helpers.arb_format)
    (fun ((src, v), dst) ->
       let dst = { dst with Ptype.rname = src.Ptype.rname } in
       let r = Receiver.create () in
       Receiver.register r dst (fun _ -> ());
       match Receiver.deliver r (Meta.plain src) v with
       | Receiver.Delivered _ | Receiver.Defaulted | Receiver.Rejected _ -> true)

let prop_delivered_value_conforms =
  QCheck.Test.make ~name:"delivered values conform to the registered format" ~count:200
    QCheck.(pair Helpers.arb_format_and_value Helpers.arb_format)
    (fun ((src, v), dst) ->
       let dst = { dst with Ptype.rname = src.Ptype.rname } in
       let r = Receiver.create () in
       let ok = ref true in
       Receiver.register r dst (fun out ->
           ok := Value.conforms (Ptype.Record dst) out);
       match Receiver.deliver r (Meta.plain src) v with
       | Receiver.Delivered _ -> !ok
       | Receiver.Defaulted | Receiver.Rejected _ -> true)

let test_wire_fused_plan_cached () =
  (* repeated wire deliveries of one format must be served entirely from
     the cached pipeline's plan: [codec.plan_compiles] ticks once, and no
     later delivery consults the codec cache at all *)
  let a = fmt "format W { int x; string s; }" in
  let b = fmt "format W { string s; int x; }" in
  let v = Value.record [ ("x", Value.Int 7); ("s", Value.String "m") ] in
  let message = Wire.encode ~format_id:3 a v in
  let reg = Obs.create () in
  let r = Receiver.create ~config:(Receiver.Config.v ~ctx:(Ctx.create ~metrics:reg ()) ()) () in
  let got = ref [] in
  Receiver.register r b (fun v -> got := v :: !got);
  for _ = 1 to 5 do
    match Receiver.deliver_wire r (Meta.plain a) message with
    | Receiver.Delivered { via = Receiver.Reordered; _ } -> ()
    | o -> Alcotest.failf "expected reordered delivery, got %a" Receiver.pp_outcome o
  done;
  Alcotest.(check int) "messages delivered" 5 (List.length !got);
  Alcotest.(check int) "one fused compile" 1
    (Obs.Counter.value reg "codec.plan_compiles");
  Alcotest.(check int) "repeats never look the plan up" 0
    (Obs.Counter.value reg "codec.plan_cache_hits")

let test_pipeline_table_bounded () =
  (* 1,000 distinct metas, each converting to the one registered target:
     the structural table keeps the 512 most recently used pipelines, so
     meta 900 (long out of the 8 identity slots) is a structural hit and
     meta 0, evicted, plans afresh *)
  let target = fmt "format T { int x; string s; }" in
  let ctx = Ctx.create () in
  let r = Receiver.create ~config:(Receiver.Config.v ~ctx ()) () in
  let got = ref None in
  Receiver.register r target (fun v -> got := Some v);
  let metas =
    Array.init 1000 (fun k ->
        Meta.plain (fmt (Printf.sprintf "format T { int x; string s; int f%d; }" k)))
  in
  let deliver k =
    let meta = metas.(k) in
    let v =
      Value.record
        [ ("x", Value.Int k); ("s", Value.String "m"); (Printf.sprintf "f%d" k, Value.Int 1) ]
    in
    got := None;
    (match Receiver.deliver_wire r meta (Wire.encode ~ctx ~format_id:k meta.Meta.body v) with
     | Receiver.Delivered { via = Receiver.Converted; _ } -> ()
     | o -> Alcotest.failf "meta %d: expected converted delivery, got %a" k Receiver.pp_outcome o);
    Alcotest.check Helpers.value
      (Printf.sprintf "meta %d delivers what morph_to gives" k)
      (Helpers.check_ok_err (Morph.morph_to meta ~target v))
      (Option.get !got)
  in
  let cold () = (Receiver.stats r).Receiver.cold_paths in
  for k = 0 to 999 do
    deliver k
  done;
  Alcotest.(check int) "one cold path per meta" 1000 (cold ());
  deliver 900;
  Alcotest.(check int) "meta 900 still cached" 1000 (cold ());
  deliver 0;
  Alcotest.(check int) "meta 0 evicted, planned afresh" 1001 (cold ())

(* --- identity slots: the pipeline found by the meta value itself -------- *)

let slot_target = fmt "format R { int x; }"

(* The [k]th of a family of distinct metas that all deliver to
   [slot_target]: even [k] structurally (exact, then with [k / 2] extra
   fields to drop), odd [k] through an Ecode hop that adds [k]. *)
let live_meta k =
  if k mod 2 = 0 then
    Meta.plain
      (Ptype.record "R"
         (Ptype.field "x" Ptype.int_
          :: List.init (k / 2) (fun i -> Ptype.field (Fmt.str "pad%d" i) Ptype.int_)))
  else
    Morph.meta (fmt "format S { int x; }")
      ~xforms:[ Morph.xform ~target:slot_target (Fmt.str "old.x = new.x + %d;" k) ]

(* A wire message of [meta]'s body with [x] set (every field is an int),
   and the value Algorithm 2 should deliver for it. *)
let live_message meta x =
  let body = meta.Meta.body in
  let v =
    Value.record
      (List.map
         (fun (f : Ptype.field) ->
            (f.Ptype.fname, Value.Int (if f.Ptype.fname = "x" then x else 0)))
         body.Ptype.fields)
  in
  ( Wire.encode ~format_id:1 body v,
    Helpers.check_ok_err (Morph.morph_to meta ~target:slot_target v) )

let metered_receiver target =
  let metrics = Obs.create () in
  let r = Receiver.create ~config:(Receiver.Config.v ~metrics ()) () in
  let got = ref None in
  Receiver.register r target (fun v -> got := Some v);
  (r, metrics, got)

let deliver_checked r got meta (message, want) =
  got := None;
  (match Receiver.deliver_wire r meta message with
   | Receiver.Delivered _ -> ()
   | o -> Alcotest.failf "expected delivery, got %a" Receiver.pp_outcome o);
  match !got with
  | Some v -> Alcotest.check Helpers.value "delivered value" want v
  | None -> Alcotest.fail "handler did not run"

let test_slots_live_metas () =
  (* callers that hold one meta value per format pay the structural key
     once per format *)
  let r, metrics, got = metered_receiver slot_target in
  let metas = Array.init 4 live_meta in
  let messages = Array.mapi (fun k m -> live_message m (10 + k)) metas in
  for i = 0 to 999 do
    deliver_checked r got metas.(i mod 4) messages.(i mod 4)
  done;
  let s = Receiver.stats r in
  Alcotest.(check int) "one cold path per meta" 4 s.Receiver.cold_paths;
  Alcotest.(check int) "the rest hit" 996 s.Receiver.cache_hits;
  Alcotest.(check int) "one structural lookup per meta" 4
    (Obs.Counter.value metrics "receiver.structural_lookups");
  (* a second decoded copy of a meta is a value of its own: after one
     structural lookup it has a slot keyed by itself *)
  let copy = Helpers.check_ok_err (Meta.decode (Meta.encode metas.(0))) in
  for i = 0 to 99 do
    deliver_checked r got (if i mod 2 = 0 then copy else metas.(0)) messages.(0)
  done;
  Alcotest.(check int) "no new cold path" 4 (Receiver.stats r).Receiver.cold_paths;
  Alcotest.(check int) "one structural lookup for the copy" 5
    (Obs.Counter.value metrics "receiver.structural_lookups")

let test_slots_fresh_copies () =
  (* a fresh decoded copy per message misses every slot but still finds
     the pipeline by structure *)
  let r, metrics, got = metered_receiver Helpers.response_v1 in
  let encoded = Meta.encode Helpers.response_v2_meta in
  for i = 1 to 100 do
    let meta = Helpers.check_ok_err (Meta.decode encoded) in
    let v = Helpers.sample_v2 (1 + (i mod 5)) in
    let want =
      Helpers.check_ok_err
        (Morph.morph_to Helpers.response_v2_meta ~target:Helpers.response_v1 v)
    in
    deliver_checked r got meta (Wire.encode ~format_id:5 Helpers.response_v2 v, want)
  done;
  Alcotest.(check int) "planned once" 1 (Receiver.stats r).Receiver.cold_paths;
  Alcotest.(check int) "every copy took the structural key" 100
    (Obs.Counter.value metrics "receiver.structural_lookups")

let test_slots_more_metas_than_slots () =
  (* twelve live metas round-robin through eight slots: every lookup
     evicts, and every delivery still runs its own meta's pipeline *)
  let r, _, got = metered_receiver slot_target in
  let metas = Array.init 12 live_meta in
  for round = 0 to 9 do
    Array.iteri
      (fun k m -> deliver_checked r got m (live_message m ((100 * round) + k)))
      metas
  done;
  Alcotest.(check int) "one cold path per meta" 12
    (Receiver.stats r).Receiver.cold_paths

let test_slots_alloc_flat () =
  (* a steady-state delivery allocates the same whatever the meta carries:
     the identity slot never walks it *)
  let body = fmt "format A { int x; string s; }" in
  let unused =
    List.init 16 (fun i ->
        Morph.xform ~target:(fmt (Fmt.str "format U%d { int x; }" i)) "old.x = new.x;")
  in
  let message =
    Wire.encode ~format_id:1 body
      (Value.record [ ("x", Value.Int 3); ("s", Value.String "m") ])
  in
  let per_delivery meta =
    let r = Receiver.create () in
    Receiver.register r body ignore;
    Helpers.alloc_per_call ~reps:100 (fun () ->
        match Receiver.deliver_wire r meta message with
        | Receiver.Delivered { via = Receiver.Exact; _ } -> ()
        | o -> Alcotest.failf "expected exact delivery, got %a" Receiver.pp_outcome o)
  in
  let plain = per_delivery (Meta.plain body) in
  let rich = per_delivery (Morph.meta body ~xforms:unused) in
  if Float.abs (rich -. plain) > 16. then
    Alcotest.failf "a delivery allocates %.0f B with 16 unused transformations \
                    against %.0f B without" rich plain;
  (* nor with the format: one receiver of two formats, each delivered
     exact, allocates for an alternating pair what it does for a pair of
     either, since each pipeline keeps its own decode plan *)
  let other = fmt "format B { int y; int z; }" in
  let r = Receiver.create () in
  Receiver.register r body ignore;
  Receiver.register r other ignore;
  let a = (Meta.plain body, message) in
  let b =
    ( Meta.plain other,
      Wire.encode ~format_id:2 other
        (Value.record [ ("y", Value.Int 1); ("z", Value.Int 2) ]) )
  in
  let deliver (meta, message) =
    match Receiver.deliver_wire r meta message with
    | Receiver.Delivered { via = Receiver.Exact; _ } -> ()
    | o -> Alcotest.failf "expected exact delivery, got %a" Receiver.pp_outcome o
  in
  let per_pair x y = Helpers.alloc_per_call ~reps:100 (fun () -> deliver x; deliver y) in
  let aa = per_pair a a and bb = per_pair b b and ab = per_pair a b in
  if Float.abs (ab -. ((aa +. bb) /. 2.)) > 16. then
    Alcotest.failf "an alternating pair allocates %.0f B against %.0f B (A,A) and \
                    %.0f B (B,B)" ab aa bb

let test_wire_delivery_alloc_budget () =
  (* a steady-state wire delivery allocates its header record and its
     value, and nothing planning could build: the header is read in place
     and the outcome is the pipeline's own *)
  let body = fmt "format A { int x; }" in
  let message = Wire.encode ~format_id:1 body (Value.record [ ("x", Value.Int 3) ]) in
  let header = Helpers.alloc_per_call ~reps:100 (fun () -> ignore (Codec.read_header message)) in
  if header > 40. then Alcotest.failf "reading a header allocates %.0f B (budget 40)" header;
  let r = Receiver.create () in
  Receiver.register r body ignore;
  let meta = Meta.plain body in
  let per_delivery =
    Helpers.alloc_per_call ~reps:100 (fun () ->
        match Receiver.deliver_wire r meta message with
        | Receiver.Delivered { via = Receiver.Exact; _ } -> ()
        | o -> Alcotest.failf "expected exact delivery, got %a" Receiver.pp_outcome o)
  in
  (* 249 B; a header read through a cursor and a copy of the magic, and
     an outcome built per delivery, would add 72 B *)
  if per_delivery > 256. then
    Alcotest.failf "an exact wire delivery allocates %.0f B (budget 256)" per_delivery

let test_nan_default_plans_once () =
  (* a NaN float default equals itself, so decoded copies of its meta find
     the planned pipeline instead of planning (and caching) one each *)
  let nan_field = Ptype.field ~default:(Ptype.Cfloat Float.nan) "f" Ptype.float_ in
  let incoming = Ptype.record "N" [ Ptype.field "x" Ptype.int_; nan_field ] in
  let r, got = make_receiver (Ptype.record "N" [ Ptype.field "x" Ptype.int_ ]) in
  let encoded = Meta.encode (Meta.plain incoming) in
  for i = 1 to 1000 do
    let meta = Helpers.check_ok_err (Meta.decode encoded) in
    let v = Value.record [ ("x", Value.Int i); ("f", Value.Float 0.5) ] in
    ignore (Receiver.deliver_wire r meta (Wire.encode ~format_id:1 incoming v))
  done;
  let s = Receiver.stats r in
  Alcotest.(check int) "planned once" 1 s.Receiver.cold_paths;
  Alcotest.(check int) "the rest hit" 999 s.Receiver.cache_hits;
  Alcotest.(check int) "all delivered" 1000 (List.length !got);
  Alcotest.(check int) "last value" 1000 (Value.to_int (Value.get_field (List.hd !got) "x"));
  (* and a receiver of that very format matches it exactly *)
  let r, got = make_receiver incoming in
  let v = Value.record [ ("x", Value.Int 1); ("f", Value.Float 0.5) ] in
  Alcotest.(check bool) "same format: exact" true
    (via_of (Receiver.deliver r (Meta.plain incoming) v) = Receiver.Exact);
  Alcotest.check Helpers.value "value untouched" v (List.hd !got)

(* --- Figure 5's loops, collapsed ------------------------------------------ *)

let path v steps =
  List.fold_left
    (fun v -> function
       | `F name -> Value.get_field v name
       | `I k -> Value.array_get v k)
    v steps

let port v steps = Value.to_int (path v (steps @ [ `F "info"; `F "port" ]))

(* The one value [meta]'s wire [message] delivers at a receiver of
   [target], which must explain its plan as [want]. *)
let loop_delivery ~want meta target message =
  let r, got = make_receiver target in
  Alcotest.(check bool) ("plan " ^ want) true
    (Helpers.contains (Receiver.explain r meta) ("[" ^ want ^ "]"));
  match Receiver.deliver_wire r meta message with
  | Receiver.Delivered _ -> List.hd !got
  | o -> Alcotest.failf "expected a delivery, got %a" Receiver.pp_outcome o

(* A fused Fig. 5 delivery gives each list its own [info], as C struct
   assignment does: changing one list's copy leaves the others alone. *)
let test_fig5_fused_copies () =
  let v2 = Echo.Wire_formats.gen_response_v2_full 3 in
  let v =
    loop_delivery ~want:"fused, 1 hop" Helpers.response_v2_meta Helpers.response_v1
      (Wire.encode ~format_id:1 Helpers.response_v2 v2)
  in
  (match Morph.morph_to Helpers.response_v2_meta ~target:Helpers.response_v1 v2 with
   | Ok want -> Alcotest.check Helpers.value "as the hop-by-hop chain" want v
   | Error e -> Alcotest.failf "morph_to: %a" Err.pp e);
  Value.set_field (path v [ `F "src_list"; `I 0; `F "info" ]) "port" (Value.Int 1);
  Alcotest.(check (list int)) "member and sink lists keep their port" [ 7000; 7000; 1 ]
    [ port v [ `F "member_list"; `I 0 ]; port v [ `F "sink_list"; `I 0 ];
      port v [ `F "src_list"; `I 0 ] ]

(* Fig. 5's wire delivery is timed as a fused one: no staged decode, no
   morph. *)
let test_fig5_wire_delivery_fuses () =
  let r, reg = traced_receiver Helpers.response_v1 in
  (match
     Receiver.deliver_wire r Helpers.response_v2_meta
       (Wire.encode ~format_id:1 Helpers.response_v2 (Helpers.sample_v2 4))
   with
   | Receiver.Delivered { via = Receiver.Morphed _; _ } -> ()
   | o -> Alcotest.failf "expected a morphed delivery, got %a" Receiver.pp_outcome o);
  Alcotest.(check (list int)) "fused, staged, wire decodes, morphs" [ 1; 0; 0; 0 ]
    [ Obs.Histogram.count reg "codec.fused_ns"; Obs.Histogram.count reg "codec.staged_ns";
      Obs.Counter.value reg "wire.decodes"; Obs.Histogram.count reg "receiver.morph_ns" ]

let loop_formats =
  "record Info { string host; int port; }\n\
   record M { Info info; int id; bool on; float w; int p; }\n"

let loop_src = fmt (loop_formats ^ "format S { string tag; int n; M list[n]; int m; }")

let loop_value ?(m = 3) members =
  Value.record
    [ ("tag", Value.String "t"); ("n", Value.Int (List.length members));
      ("list",
       Value.array_of_list
         (List.map
            (fun (id, on, w, p) ->
               Value.record
                 [ ("info",
                    Value.record [ ("host", Value.String "h"); ("port", Value.Int (10 + id)) ]);
                   ("id", Value.Int id); ("on", Value.Bool on); ("w", Value.Float w);
                   ("p", Value.Int p) ])
            members));
      ("m", Value.Int m) ]

(* A whole-element copy loop: the unguarded list moves whole, the guarded
   one is an element map over the same array; neither shares an element
   with the other. *)
let test_whole_element_loop_copies () =
  let t = fmt (loop_formats ^ "format T { int n; M all[n]; int c; M kept[c]; }") in
  let meta =
    Morph.meta loop_src
      ~xforms:
        [ Morph.xform ~target:t
            "int i, k = 0;\n\
             old.n = new.n;\n\
             for (i = 0; i < new.n; i++) {\n\
             \  old.all[i] = new.list[i];\n\
             \  if (new.list[i].on) { old.kept[k] = new.list[i]; k++; }\n\
             }\n\
             old.c = k;" ]
  in
  let src = loop_value [ (1, true, 0., 0); (2, false, 0., 0); (3, true, 0., 0) ] in
  let v = loop_delivery ~want:"fused, 1 hop" meta t (Wire.encode ~format_id:1 loop_src src) in
  Alcotest.(check (list int)) "kept the guarded elements" [ 2; 11; 13 ]
    [ Value.to_int (Value.get_field v "c"); port v [ `F "kept"; `I 0 ];
      port v [ `F "kept"; `I 1 ] ];
  Value.set_field (path v [ `F "kept"; `I 0; `F "info" ]) "port" (Value.Int 1);
  Value.set_field (path v [ `F "all"; `I 2; `F "info" ]) "port" (Value.Int 2);
  Alcotest.(check (list int)) "no element shared" [ 11; 13; 1; 2 ]
    [ port v [ `F "all"; `I 0 ]; port v [ `F "kept"; `I 1 ]; port v [ `F "kept"; `I 0 ];
      port v [ `F "all"; `I 2 ] ]

(* A guard tests its field through the checker's coercions: a float
   tests non-zero, as in C, so 0.5 keeps, and any non-zero int keeps. *)
let test_loop_guards () =
  let t =
    fmt (loop_formats ^ "record K { int id; } format T { int a; K byw[a]; int b; K byp[b]; }")
  in
  let meta =
    Morph.meta loop_src
      ~xforms:
        [ Morph.xform ~target:t
            "int i, a = 0, b = 0;\n\
             for (i = 0; i < new.n; i++) {\n\
             \  if (new.list[i].w) { old.byw[a].id = new.list[i].id; a++; }\n\
             \  if (new.list[i].p) { old.byp[b].id = new.list[i].id; b += 1; }\n\
             }\n\
             old.a = a; old.b = b;" ]
  in
  let v =
    loop_delivery ~want:"fused, 1 hop" meta t
      (Wire.encode ~format_id:1 loop_src (loop_value [ (1, true, 0.5, 2); (2, true, 1.5, 0) ]))
  in
  Alcotest.check Helpers.value "0.5 keeps, 2 keeps"
    (Value.record
       [ ("a", Value.Int 2);
         ( "byw",
           Value.array_of_list
             [ Value.record [ ("id", Value.Int 1) ]; Value.record [ ("id", Value.Int 2) ] ] );
         ("b", Value.Int 1);
         ("byp", Value.array_of_list [ Value.record [ ("id", Value.Int 1) ] ]) ])
    v

(* A hop may store a 4-element array in a fixed-3 field, as Ecode's
   assignment takes any array of the same element shape; the final
   conversion's rebuild is what truncates it, fused as hop by hop. *)
let test_collapsed_conversion_rebuilds () =
  let src = fmt "format S { int b[4]; int x; }" in
  let mid = fmt "format S { int a[3]; int x; }" in
  let target = fmt "format S { int a[3]; }" in
  let meta = Morph.meta src ~xforms:[ Morph.xform ~target:mid "old.a = new.b; old.x = new.x;" ] in
  let v =
    Value.record
      [ ("b", Value.array_of_list (List.map (fun i -> Value.Int i) [ 1; 2; 3; 4 ]));
        ("x", Value.Int 9) ]
  in
  let got = loop_delivery ~want:"fused, 1 hop" meta target (Wire.encode ~format_id:1 src v) in
  let want =
    Helpers.check_ok_err (Morph.morph_to ~engine:Morph.Xform.Interpreted meta ~target v)
  in
  Alcotest.check Helpers.value "as the interpreter" want got;
  Alcotest.check Helpers.value "three elements"
    (Value.record
       [ ("a", Value.array_of_list (List.map (fun i -> Value.Int i) [ 1; 2; 3 ])) ])
    got

(* A chain whose map the check refuses plans staged and delivers what the
   interpreter gives, raising nothing. *)
let test_refused_map_stays_staged () =
  let got =
    loop_delivery ~want:"staged, 2 hops" Helpers.refused_meta Helpers.refused_target
      (Wire.encode ~format_id:1 Helpers.refused_src Helpers.refused_value)
  in
  Alcotest.check Helpers.value "as the interpreter"
    (Helpers.check_ok_err
       (Morph.morph_to ~engine:Morph.Xform.Interpreted Helpers.refused_meta
          ~target:Helpers.refused_target Helpers.refused_value))
    got

(* Shapes the recogniser leaves alone: each explains as staged and
   delivers over the wire what decoding then interpreting gives, or fails
   where that fails. *)
let test_loop_shapes_stay_staged () =
  let t =
    fmt (loop_formats
         ^ "record K { Info info; int id; } format T { int n; K all[n]; int c; K kept[c]; }")
  in
  let fig5 ?(decl = "int i, j, k = 0;") ?(bound = "new.n") ?(body = "") ?(append = "") () =
    Printf.sprintf
      "%s\nold.n = new.n;\nfor (i = 0; i < %s; i++) {\n\
       \  old.all[i].info = new.list[i].info;\n%s\n\
       \  if (new.list[i].on) { old.kept[k].id = new.list[i].id; k++; }%s\n}\nold.c = k;"
      decl bound body append
  in
  (* one hop, built as a record: [Morph.meta] would reject the late
     length field below *)
  let hop src t code = { Meta.body = src; xforms = [ Morph.xform ~target:t code ] } in
  let message =
    Wire.encode ~format_id:1 loop_src
      (loop_value ~m:2 [ (1, true, 0., 0); (2, false, 0., 0); (3, true, 0., 0) ])
  in
  (* the length field after its array: the wire decodes the array empty,
     whatever the length field says *)
  let late =
    match Ptype.find_field loop_src "list" with
    | Some { ftype = Ptype.Array { elem; _ }; _ } ->
      Ptype.record "S"
        [ Ptype.field "tag" Ptype.string_; Ptype.field "list" (Ptype.array_var "n" elem);
          Ptype.field "n" Ptype.int_ ]
    | _ -> Alcotest.fail "S has a list"
  in
  let late_message =
    let m =
      Wire.encode ~format_id:1 late
        (Value.record
           [ ("tag", Value.String "t"); ("list", Value.array_of_list []); ("n", Value.Int 0) ])
    in
    String.sub m 0 (String.length m - 4) ^ "\002\000\000\000"
  in
  let te =
    fmt (loop_formats
         ^ "enum E { A = 0, B = 1 } record K { Info info; E e; } format T { int n; K all[n]; }")
  in
  (* the enum coercion's list dropped by a second hop: the chain still
     runs the coercion on every element *)
  let enum_code =
    "int i;\nold.n = new.n;\nfor (i = 0; i < new.n; i++) { old.all[i].e = new.list[i].p; }"
  in
  (* an enum coercion's failure a later store would hide: an element store
     over its field, or the whole list stored over after the loop; [p] is 5,
     which no case of [E] has *)
  let hidden =
    "int i;\nold.n = new.n;\n\
     for (i = 0; i < new.n; i++) { old.all[i].e = new.list[i].p; old.all[i].e = 0; }"
  in
  let p5_message = Wire.encode ~format_id:1 loop_src (loop_value ~m:2 [ (1, true, 0., 5) ]) in
  let sk =
    fmt "enum E { A = 0, B = 1 } record R { int p; } record K { E e; }\n\
         format S { int n; R list[n]; K ks[n]; }"
  in
  let tk = fmt "enum E { A = 0, B = 1 } record K { E e; } format T { int n; K all[n]; }" in
  let stored_over =
    "int i;\nold.n = new.n;\n\
     for (i = 0; i < new.n; i++) { old.all[i].e = new.list[i].p; }\nold.all = new.ks;"
  in
  let sk_message =
    Wire.encode ~format_id:1 sk
      (Value.record
         [ ("n", Value.Int 1);
           ("list", Value.array_of_list [ Value.record [ ("p", Value.Int 5) ] ]);
           ("ks", Value.array_of_list [ Value.record [ ("e", Value.Enum ("A", 0)) ] ]) ])
  in
  let tn = fmt "format T { int n; }" in
  let enum_dropped =
    { Meta.body = loop_src;
      xforms =
        [ Morph.xform ~target:te enum_code; Morph.xform ~source:te ~target:tn "old.n = new.n;" ] }
  in
  (* a second hop looping over the list the first one filtered *)
  let u = fmt (loop_formats ^ "record K { Info info; int id; } format T { int m; K copy[m]; }") in
  let twice =
    { Meta.body = loop_src;
      xforms =
        [ Morph.xform ~target:t (fig5 ());
          Morph.xform ~source:t ~target:u
            "int i;\nold.m = new.c;\nfor (i = 0; i < new.c; i++) old.copy[i] = new.kept[i];" ] }
  in
  (* a second hop looping over a list whose length field another array
     shares, which the first hop's sync left at 0, though [k] still holds
     the list's length *)
  let shared = fmt (loop_formats ^ "format T { int n; M list[n]; M extra[n]; int k; }") in
  let w = fmt (loop_formats ^ "format T { int m; M copy[m]; }") in
  let overwritten =
    { Meta.body = loop_src;
      xforms =
        [ Morph.xform ~target:shared "old.n = new.n; old.list = new.list; old.k = new.n;";
          Morph.xform ~source:shared ~target:w
            "int i;\nold.m = new.k;\nfor (i = 0; i < new.n; i++) old.copy[i] = new.list[i];" ] }
  in
  (* a loop over an array of ints that also fills a list of records with
     a constant: no element map reads anything but records *)
  let ints = fmt "format S { int n; int a[n]; }" in
  let tr = fmt "record R { int f; } format T { int n; int b[n]; int m; R c[m]; }" in
  let ints_message =
    Wire.encode ~format_id:1 ints
      (Value.record
         [ ("n", Value.Int 3); ("a", Value.array_of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ]) ])
  in
  let staged (name, meta, t, message) =
    let r, got = make_receiver t in
    Alcotest.(check bool) (name ^ ": staged") true
      (Helpers.contains (Receiver.explain r meta) "[staged, ");
    let reference =
      Morph.morph_to ~engine:Morph.Xform.Interpreted meta ~target:t
        (Codec.Interp.decode_payload ~endian:Codec.Little ~pos:Codec.header_size meta.Meta.body
           message)
    in
    match Receiver.deliver_wire r meta message, reference with
    | Receiver.Delivered _, Ok want -> Alcotest.check Helpers.value name want (List.hd !got)
    | Receiver.Rejected reason, Error _ when Helpers.contains reason "transformation failed" ->
      ()
    | o, _ ->
      Alcotest.failf "%s: receiver %a, reference %s" name Receiver.pp_outcome o
        (match reference with Ok _ -> "delivers" | Error e -> Err.to_string e)
  in
  List.iter staged
    [ ("a counter declared = 1", hop loop_src t (fig5 ~decl:"int i, k = 1;" ()), t, message);
      ("an append with an else", hop loop_src t (fig5 ~append:" else { }" ()), t, message);
      ("a read of old", hop loop_src t (fig5 ~body:"old.all[i].id = old.n;" ()), t, message);
      ("a bound that is not the array's length field", hop loop_src t (fig5 ~bound:"new.m" ()), t,
       message);
      ("a length field after its array", hop late t (fig5 ()), t, late_message);
      ("a nested loop",
       hop loop_src t (fig5 ~body:"for (j = 0; j < new.n; j++) old.all[i].id = new.list[j].id;" ()),
       t, message);
      ("i used as a value", hop loop_src t (fig5 ~body:"old.all[i].id = i;" ()), t, message);
      ("an enum coercion", hop loop_src te enum_code, te, message);
      ("an enum coercion in a list a later hop drops", enum_dropped, tn, message);
      ("a loop over a list a loop built", twice, u, message);
      ("a bound another array's length overwrote", overwritten, w, message);
      ("a loop over an array of ints",
       hop ints tr
         "int i;\nold.n = new.n;\n\
          for (i = 0; i < new.n; i++) { old.b[i] = new.a[i]; old.c[i].f = 3; }",
       tr, ints_message);
      ("an enum coercion a later element store overwrites", hop loop_src te hidden, te, p5_message);
      ("an enum coercion in a list a later store overwrites", hop sk tk stored_over, tk, sk_message)
    ]

let suite =
  [
    Alcotest.test_case "exact match" `Quick test_exact_match;
    Alcotest.test_case "wire: fused plan compiled once" `Quick
      test_wire_fused_plan_cached;
    Alcotest.test_case "perfect match with reorder" `Quick test_reordered_perfect_match;
    Alcotest.test_case "imperfect match converts" `Quick test_converted_imperfect_match;
    Alcotest.test_case "morphed via transformation" `Quick test_morphed_via_transformation;
    Alcotest.test_case "morphed then converted" `Quick test_morphed_then_converted;
    Alcotest.test_case "rejects unknown name" `Quick test_rejected_no_name;
    Alcotest.test_case "thresholds gate acceptance" `Quick test_rejected_over_threshold;
    Alcotest.test_case "default handler" `Quick test_default_handler;
    Alcotest.test_case "cache: cold once, hits after" `Quick test_cache_behaviour;
    Alcotest.test_case "cache: keyed on full meta" `Quick test_cache_keyed_on_meta_not_name;
    Alcotest.test_case "cache: reset on register" `Quick test_register_resets_cache;
    Alcotest.test_case "cache: rejections cached" `Quick test_rejection_is_cached_too;
    Alcotest.test_case "cache: live metas hit their identity slots" `Quick
      test_slots_live_metas;
    Alcotest.test_case "cache: fresh meta copies fall back to structure" `Quick
      test_slots_fresh_copies;
    Alcotest.test_case "cache: more live metas than identity slots" `Quick
      test_slots_more_metas_than_slots;
    Alcotest.test_case "cache: delivery allocation flat in the meta" `Quick
      test_slots_alloc_flat;
    Alcotest.test_case "a wire delivery allocates its header and value" `Quick
      test_wire_delivery_alloc_budget;
    Alcotest.test_case "cache: nan default plans once" `Quick
      test_nan_default_plans_once;
    Alcotest.test_case "cache: pipeline table bounded at 512" `Quick
      test_pipeline_table_bounded;
    Alcotest.test_case "broken transformation rejects" `Quick test_bad_transformation_rejects;
    Alcotest.test_case "best registered format wins" `Quick test_multiple_registered_picks_best;
    Alcotest.test_case "deliver_wire decodes first" `Quick test_deliver_wire;
    Alcotest.test_case "interpreted engine equivalent" `Quick test_interpreted_engine_equivalent;
    Alcotest.test_case "morph_to facade" `Quick test_morph_to_facade;
    Alcotest.test_case "cross-name morphing" `Quick test_cross_name_morphing;
    Alcotest.test_case "explain" `Quick test_explain;
    Alcotest.test_case "collapsed chain builds no intermediate value" `Quick
      test_collapsed_chain;
    Alcotest.test_case "collapsed chain: the final conversion rebuilds arrays" `Quick
      test_collapsed_conversion_rebuilds;
    Alcotest.test_case "a chain the map check refuses stays staged" `Quick
      test_refused_map_stays_staged;
    Alcotest.test_case "collapsed chain classifies failures as staged" `Quick
      test_collapsed_failures_classified;
    Alcotest.test_case "check_meta validates snippets" `Quick test_check_meta;
    Alcotest.test_case "quarantine after repeated failures" `Quick
      test_quarantine_after_repeated_failures;
    Alcotest.test_case "quarantine: success resets the streak" `Quick
      test_quarantine_success_resets_streak;
    Alcotest.test_case "quarantine: the third failure in a row trips" `Quick
      test_quarantine_third_failure_trips;
    Alcotest.test_case "quarantine: one pipeline's trip spares other formats" `Quick
      test_quarantine_is_per_pipeline;
    Alcotest.test_case "quarantine: a trip is counted and captured" `Quick
      test_quarantine_counted_and_captured;
    Alcotest.test_case "quarantine: turned-away deliveries reach the default handler"
      `Quick test_quarantine_turns_away_to_default;
    Alcotest.test_case "quarantine: breaker gates fused wire deliveries" `Quick
      test_quarantine_gates_fused_wire;
    Alcotest.test_case "delivery probe observes outcomes" `Quick
      test_delivery_probe_observes_outcomes;
    Alcotest.test_case "metrics counters mirror stats" `Quick test_metrics_counters;
    Alcotest.test_case "telemetry: a fused delivery reads the clock 3 times" `Quick
      test_fused_delivery_clock_reads;
    Alcotest.test_case "telemetry: staged delivery reads the clock once per boundary" `Quick
      test_staged_delivery_clock_reads;
    Alcotest.test_case "telemetry: a traced delivery promotes nothing" `Quick
      test_traced_delivery_promotes_nothing;
    Alcotest.test_case "telemetry: exact delivery span attributes" `Quick
      test_delivery_span_attrs;
    Helpers.qtest prop_deliver_total;
    Helpers.qtest prop_delivered_value_conforms;
    Alcotest.test_case "telemetry: an exact wire delivery fuses" `Quick
      test_exact_wire_delivery_fuses;
    Alcotest.test_case "loops: a fused Fig. 5 delivery copies each info" `Quick
      test_fig5_fused_copies;
    Alcotest.test_case "loops: whole-element copies share nothing" `Quick
      test_whole_element_loop_copies;
    Alcotest.test_case "loops: guards test through the checker's coercions" `Quick
      test_loop_guards;
    Alcotest.test_case "loops: other shapes stay staged" `Quick test_loop_shapes_stay_staged;
    Alcotest.test_case "telemetry: a Fig. 5 wire delivery fuses" `Quick
      test_fig5_wire_delivery_fuses;
    Alcotest.test_case "engines: same outcome and text on every probe" `Quick
      test_engines_same_outcome;
    Alcotest.test_case "a numeric literal past its type is a rejected format" `Quick
      test_bad_literal_rejected;
    Alcotest.test_case "a store past the largest array is a transform failure" `Quick
      test_hostile_store_rejected;
    Alcotest.test_case "plan: a malformed message is a decode failure" `Quick
      test_plan_decode_failure;
    Alcotest.test_case "plan: a failing hop is a transform failure" `Quick test_plan_hop_failure;
    Alcotest.test_case "plan: a failing enum coercion is a transform failure" `Quick
      test_plan_coercion_failure;
    Alcotest.test_case "plan: a failing conversion is a transform failure" `Quick
      test_plan_conversion_failure;
  ]
