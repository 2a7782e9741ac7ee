(* Tests for the compiled wire-codec plans (Pbio.Codec): byte- and
   value-equivalence against the interpretive reference, fused
   decode->morph against decode-then-convert, and the plan cache. *)

open Pbio

let fmt = Ptype_dsl.format_of_string_exn

let both_endians f =
  f Codec.Little;
  f Codec.Big

(* --- compiled vs interpretive, fixture formats ---------------------------- *)

let test_fixture_equivalence () =
  let v = Helpers.sample_v2 5 in
  both_endians (fun endian ->
      let enc = Codec.compile_encode ~endian Helpers.response_v2 in
      let bytes_c = Codec.encode_payload enc v in
      let bytes_i = Codec.Interp.encode_payload ~endian Helpers.response_v2 v in
      Alcotest.(check string) "payload bytes identical" bytes_i bytes_c;
      let msg_c = Codec.encode_message enc ~format_id:7 v in
      let msg_i =
        Codec.Interp.encode_message ~endian ~format_id:7 Helpers.response_v2 v
      in
      Alcotest.(check string) "message bytes identical" msg_i msg_c;
      let dec = Codec.compile_decode ~endian Helpers.response_v2 in
      Alcotest.check Helpers.value "decode matches value" v
        (Codec.decode_payload dec bytes_c);
      Alcotest.check Helpers.value "interp decode agrees"
        (Codec.Interp.decode_payload ~endian Helpers.response_v2 bytes_c)
        (Codec.decode_payload dec bytes_c))

let expect_decode_error f =
  try
    ignore (f ());
    Alcotest.fail "expected Decode_error"
  with Codec.Decode_error _ -> ()

(* [payload] with the 32-bit word at [off] set to [n]. *)
let patch endian payload off n =
  let b = Bytes.of_string payload in
  (match endian with
   | Codec.Little -> Bytes.set_int32_le b off (Int32.of_int n)
   | Codec.Big -> Bytes.set_int32_be b off (Int32.of_int n));
  Bytes.to_string b

(* --- enum handling -------------------------------------------------------- *)

let enum_fmt = fmt "enum level { low = 1, high = 5 } format E { level l; }"

let test_unknown_enum_rejected_both_paths () =
  both_endians (fun endian ->
      let enc = Codec.compile_encode ~endian enum_fmt in
      let good = Codec.encode_payload enc (Value.record [ ("l", Value.Enum ("low", 1)) ]) in
      (* patch the enum word to a value outside the declared cases *)
      let bad = Bytes.of_string good in
      Bytes.set_int32_le bad 0 99l;
      Bytes.set_int32_be bad 0 99l;
      let bad = Bytes.to_string bad in
      let dec = Codec.compile_decode ~endian enum_fmt in
      expect_decode_error (fun () -> Codec.decode_payload dec bad);
      expect_decode_error (fun () ->
          Codec.Interp.decode_payload ~endian enum_fmt bad))

let test_int_to_enum_unknown_falls_back () =
  (* sender int value with no case in the receiver enum: the fused plan
     must produce the same zero_basic fallback the staged path does *)
  let src = fmt "format E { int l; }" in
  let dst = enum_fmt in
  both_endians (fun endian ->
      let enc = Codec.compile_encode ~endian src in
      let payload = Codec.encode_payload enc (Value.record [ ("l", Value.Int 42) ]) in
      let staged =
        Helpers.check_ok_err
          (Convert.convert ~from_:src ~into:dst
             (Codec.decode_payload (Codec.compile_decode ~endian src) payload))
      in
      let fused =
        Codec.morph_payload (Codec.compile_morph ~endian ~from_:src ~into:dst) payload
      in
      Alcotest.check Helpers.value "fallback identical" staged fused)

let test_enum_to_enum_unmapped_falls_back () =
  let src = fmt "enum level { mid = 3 } format E { level l; }" in
  let dst = enum_fmt in
  both_endians (fun endian ->
      let enc = Codec.compile_encode ~endian src in
      let payload =
        Codec.encode_payload enc (Value.record [ ("l", Value.Enum ("mid", 3)) ])
      in
      let staged =
        Helpers.check_ok_err
          (Convert.convert ~from_:src ~into:dst
             (Codec.decode_payload (Codec.compile_decode ~endian src) payload))
      in
      let fused =
        Codec.morph_payload (Codec.compile_morph ~endian ~from_:src ~into:dst) payload
      in
      Alcotest.check Helpers.value "unmapped case falls back" staged fused)

(* --- fused decode->morph -------------------------------------------------- *)

let test_fused_equals_staged_on_fixtures () =
  let v = Helpers.sample_v2 6 in
  both_endians (fun endian ->
      let payload =
        Codec.encode_payload (Codec.compile_encode ~endian Helpers.response_v2) v
      in
      let staged =
        Helpers.check_ok_err
          (Convert.convert ~from_:Helpers.response_v2 ~into:Helpers.response_v1
             (Codec.decode_payload
                (Codec.compile_decode ~endian Helpers.response_v2)
                payload))
      in
      let fused =
        Codec.morph_payload
          (Codec.compile_morph ~endian ~from_:Helpers.response_v2
             ~into:Helpers.response_v1)
          payload
      in
      Alcotest.check Helpers.value "v2 -> v1 fused = staged" staged fused)

let test_fused_skipped_length_field_still_sizes () =
  (* [n] is dropped by the target but sizes the source array: the fused
     plan must still read it to know how many elements to consume *)
  let src = fmt "format R { int n; int xs[n]; string tail; }" in
  let dst = fmt "format R { string tail; }" in
  let v =
    Value.record
      [ ("n", Value.Int 3);
        ("xs", Value.array_of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ]);
        ("tail", Value.String "end") ]
  in
  both_endians (fun endian ->
      let payload = Codec.encode_payload (Codec.compile_encode ~endian src) v in
      let fused =
        Codec.morph_payload (Codec.compile_morph ~endian ~from_:src ~into:dst) payload
      in
      Alcotest.(check string) "tail survives the skip" "end"
        (Value.to_string_exn (Value.get_field fused "tail")))

(* --- hostile lengths ------------------------------------------------------ *)

let test_hostile_length_rejected_cheaply () =
  (* a negative count, or a length field claiming far more elements than
     the message holds, must be rejected by every reader's count guard,
     which runs before any element is allocated: decode, a skip (a fused
     morph that drops the array), a nested fused conversion (the element
     record changed) and an element map (Figure 5 as one fused wire plan),
     each with the interpreter's error text, including for nested
     (array-of-record-of-array) counts *)
  let r = fmt "format R { int n; float xs[n]; }" in
  let nested = fmt "record Row { int m; int ys[m]; } format R { int n; Row rows[n]; }" in
  let drops_array = fmt "format R { int n; }" in
  let row_changed = fmt "record Row { int m; } format R { int n; Row rows[n]; }" in
  let hostile = [ -1; 0x1000000 ] in
  let interp_error ?pos endian src bad =
    match Codec.Interp.decode_payload ~endian ?pos src bad with
    | _ -> Alcotest.fail "the interpreter accepts a hostile count"
    | exception Codec.Decode_error m -> m
  in
  let same_error what want f =
    match f () with
    | _ -> Alcotest.failf "%s accepts a hostile count (want %S)" what want
    | exception Codec.Decode_error m -> Alcotest.(check string) what want m
  in
  both_endians (fun endian ->
      let readers src targets bad =
        let want = interp_error endian src bad in
        same_error "decode" want (fun () ->
            Codec.decode_payload (Codec.compile_decode ~endian src) bad);
        List.iter
          (fun (what, into) ->
             same_error what want (fun () ->
                 Codec.morph_payload (Codec.compile_morph ~endian ~from_:src ~into) bad))
          targets
      in
      let good =
        Codec.encode_payload
          (Codec.compile_encode ~endian r)
          (Value.record [ ("n", Value.Int 1); ("xs", Value.array_of_list [ Value.Float 1. ]) ])
      in
      List.iter (fun n -> readers r [ ("skip", drops_array) ] (patch endian good 0 n)) hostile;
      let goodn =
        Codec.encode_payload
          (Codec.compile_encode ~endian nested)
          (Value.record
             [ ("n", Value.Int 1);
               ( "rows",
                 Value.array_of_list
                   [ Value.record
                       [ ("m", Value.Int 1); ("ys", Value.array_of_list [ Value.Int 9 ]) ] ] )
             ])
      in
      (* the outer count, then the first row's [m] *)
      let nested_readers = [ ("skip", drops_array); ("nested conversion", row_changed) ] in
      List.iter
        (fun off ->
           List.iter (fun n -> readers nested nested_readers (patch endian goodn off n)) hostile)
        [ 0; 4 ];
      (* Figure 5 at a v1.0 receiver: the member list read through its
         element maps, whose count comes after the channel name *)
      let recv = Morph.Receiver.create () in
      Morph.Receiver.register recv Helpers.response_v1 (fun _ -> ());
      let v = Helpers.sample_v2 3 in
      let message = Wire.encode ~endian ~format_id:5 Helpers.response_v2 v in
      let at =
        Codec.header_size + 4 + String.length (Value.to_string_exn (Value.get_field v "channel"))
      in
      List.iter
        (fun n ->
           let bad = patch endian message at n in
           let want =
             "wire decode failed: decode: "
             ^ interp_error ~pos:Codec.header_size endian Helpers.response_v2 bad
           in
           match Morph.Receiver.deliver_wire recv Helpers.response_v2_meta bad with
           | Morph.Receiver.Rejected got -> Alcotest.(check string) "element map" want got
           | o -> Alcotest.failf "element map: %a" Morph.Receiver.pp_outcome o)
        hostile;
      Alcotest.(check string) "Figure 5 runs one fused plan" "fused, 1 hop"
        (match Morph.Receiver.plan recv Helpers.response_v2_meta with
         | Ok p when Morph.Plan.kind p = Morph.Plan.Fused ->
           Printf.sprintf "fused, %d hop" (Morph.Plan.hops p)
         | Ok _ | Error _ -> "not fused"))

(* --- coalesced skips under truncation ------------------------------------- *)

let response_v2_header =
  Ptype.record "ChannelOpenResponse"
    [ Ptype.field "channel" Ptype.string_; Ptype.field "member_count" Ptype.int_ ]

let test_truncated_coalesced_skip_rejected () =
  (* The header-only target drops every member, so the fused plan skips
     each one as its host string then a 10-byte tail (info.port, ID,
     is_source, is_sink), and must reject what the staged path rejects,
     with the texts below in both byte orders.  The staged path names the
     first field it misses, the fused plan the whole tail.  Members start
     at offset 22 and take 36 bytes each.  The count guard runs before any
     member and wants at least 14 bytes a member, so a cut anywhere in the
     first member fails there; the last member's cuts reach the skip's
     length-prefix and tail checks, and the first member's patched host
     length its string check. *)
  let v = Helpers.sample_v2 3 in
  let members = Value.get_field v "member_list" in
  let last = Value.array_get members (Value.array_len members - 1) in
  let host = Value.to_string_exn (Value.get_field (Value.get_field last "info") "host") in
  let guard = "array length 3 for \"member_count\" exceeds message size" in
  let truncated need at limit =
    Printf.sprintf "truncated message: need %d bytes at offset %d (limit %d)" need at limit
  in
  let error_text what f =
    match f () with
    | _ -> Alcotest.failf "%s: delivered" what
    | exception Codec.Decode_error m -> m
  in
  both_endians (fun endian ->
      let payload = Codec.Interp.encode_payload ~endian Helpers.response_v2 v in
      let member_len =
        String.length (Codec.Interp.encode_payload ~endian Helpers.member_v2 last)
      in
      let first = String.length payload - (3 * member_len) in
      let last = String.length payload - member_len in
      let port = last + 4 + String.length host in
      let cut n = String.sub payload 0 n in
      let fused p =
        Codec.morph_payload
          (Codec.compile_morph ~endian ~from_:Helpers.response_v2 ~into:response_v2_header)
          p
      in
      let staged p =
        Convert.convert ~from_:Helpers.response_v2 ~into:response_v2_header
          (Codec.decode_payload (Codec.compile_decode ~endian Helpers.response_v2) p)
      in
      Alcotest.check Helpers.value "whole payload: fused = staged"
        (Helpers.check_ok_err (staged payload)) (fused payload);
      let empty = Codec.Interp.encode_payload ~endian Helpers.response_v2 (Helpers.sample_v2 0) in
      Alcotest.check Helpers.value "an empty member list: fused = staged"
        (Helpers.check_ok_err (staged empty)) (fused empty);
      List.iter
        (fun (what, bad, want_fused, want_staged) ->
           Alcotest.(check string) (what ^ ", fused") want_fused (error_text what (fun () -> fused bad));
           Alcotest.(check string) (what ^ ", staged") want_staged
             (error_text what (fun () -> staged bad)))
        [ ( "a cut in the last member's port", cut (port + 2),
            truncated 10 port (port + 2), truncated 4 port (port + 2) );
          ( "a cut in the last member's ID", cut (port + 4 + 3),
            truncated 10 port (port + 7), truncated 4 (port + 4) (port + 7) );
          ( "a cut in the last member's host length prefix", cut (last + 2),
            truncated 4 last (last + 2), truncated 4 last (last + 2) );
          ("a cut in the first member's host length prefix", cut (first + 2), guard, guard);
          ( "the first member's host length past the end", patch endian payload first 1000,
            "string length 1000 exceeds message", "string length 1000 exceeds message" );
          ( "a cut in the first member's tail", cut (first + 4 + String.length host + 5),
            guard, guard ) ])

(* --- one-pass and two-phase nested records --------------------------------- *)

(* Nested records a fused plan converts by name, each inside [S] beside a
   trailing field: [enum_at] is the offset of an enum word inside the
   record the conversion drops. *)
let nested_cases =
  let inner = "enum color { red = 1, blue = 2 } record Inner { string s; color c; }" in
  let value ?(row = []) () =
    let inner = Value.record [ ("s", Value.String "xy"); ("c", Value.Enum ("blue", 2)) ] in
    Value.record
      [ ( "row",
          Value.record
            (match row with
             | [] -> [ ("a", Value.Int 1); ("gone", inner); ("b", Value.Int 2) ]
             | fields -> fields) );
        ("tail", Value.Int 9) ]
  in
  let sized_inner =
    Value.record
      [ ("n", Value.Int 2); ("xs", Value.array_of_list [ Value.Int 5; Value.Int 6 ]);
        ("c", Value.Enum ("red", 1)) ]
  in
  [ ( "ordered: a dropped record with a string and an enum between kept fields",
      fmt (inner ^ " record Row { int a; Inner gone; int b; } format S { Row row; int tail; }"),
      fmt "record Row { int a; int b; } format S { Row row; int tail; }",
      value (), 10 );
    ( "two-phase: the same target with its fields swapped",
      fmt (inner ^ " record Row { int a; Inner gone; int b; } format S { Row row; int tail; }"),
      fmt "record Row { int b; int a; } format S { Row row; int tail; }",
      value (), 10 );
    ( "a dropped record with its own length slot",
      fmt
        "enum color { red = 1, blue = 2 } record Inner { int n; int xs[n]; color c; } \
         record Row { int a; Inner gone; int b; } format S { Row row; int tail; }",
      fmt "record Row { int a; int b; } format S { Row row; int tail; }",
      value
        ~row:[ ("a", Value.Int 1); ("gone", sized_inner); ("b", Value.Int 2) ]
        (),
      16 );
    ( "a kept length field with a Convert step",
      fmt
        (inner
         ^ " record Row { int n; Inner gone; int xs[n]; } format S { Row row; int tail; }"),
      fmt "record Row { uint n; int xs[n]; } format S { Row row; int tail; }",
      value
        ~row:
          [ ("n", Value.Int 3);
            ( "gone",
              Value.record [ ("s", Value.String "xy"); ("c", Value.Enum ("blue", 2)) ] );
            ("xs", Value.array_of_list [ Value.Int 7; Value.Int 8; Value.Int 9 ]) ]
        (),
      10 ) ]

let test_nested_maps_agree_with_interp () =
  (* each fused plan accepts exactly what the interpreter's decode accepts,
     at every cut of the encoding and with an unknown enum in the record
     it skips, and delivers Convert's value *)
  List.iter
    (fun (what, src, dst, v, enum_at) ->
       both_endians (fun endian ->
           let fused = Codec.compile_morph ~endian ~from_:src ~into:dst in
           let agree where payload =
             let staged =
               match Codec.Interp.decode_payload ~endian src payload with
               | d -> Some (Helpers.check_ok_err (Convert.convert ~from_:src ~into:dst d))
               | exception Codec.Decode_error _ -> None
             in
             let got =
               match Codec.morph_payload fused payload with
               | x -> Some x
               | exception Codec.Decode_error _ -> None
             in
             Alcotest.(check (option Helpers.value)) (what ^ where) staged got
           in
           let payload = Codec.Interp.encode_payload ~endian src v in
           Alcotest.check Helpers.value what
             (Helpers.check_ok_err (Convert.convert ~from_:src ~into:dst v))
             (Codec.morph_payload fused payload);
           for cut = 0 to String.length payload - 1 do
             agree (Printf.sprintf ", cut at %d" cut) (String.sub payload 0 cut)
           done;
           let bad = Bytes.of_string payload in
           (match endian with
            | Codec.Little -> Bytes.set_int32_le bad enum_at 99l
            | Codec.Big -> Bytes.set_int32_be bad enum_at 99l);
           agree ", an unknown enum" (Bytes.to_string bad);
           expect_decode_error (fun () -> Codec.morph_payload fused (Bytes.to_string bad))))
    nested_cases

let test_fused_keep_alloc_budget () =
  (* the channel-keep morph of a 255-member ChannelOpenResponse: each
     member is read in one pass into its record, with no state array *)
  let keep =
    Ptype.record "ChannelOpenResponse"
      [ Ptype.field "channel" Ptype.string_; Ptype.field "member_count" Ptype.int_;
        Ptype.field "member_list"
          (Ptype.array_var "member_count" (Ptype.Record Echo.Wire_formats.member_v1)) ]
  in
  let payload =
    Codec.Interp.encode_payload ~endian:Codec.Little Helpers.response_v2 (Helpers.sample_v2 255)
  in
  let m = Codec.compile_morph ~endian:Codec.Little ~from_:Helpers.response_v2 ~into:keep in
  let words =
    Helpers.alloc_per_call (fun () -> ignore (Codec.morph_payload m payload))
    /. float_of_int (Sys.word_size / 8)
  in
  if words > 8_500. then
    Alcotest.failf "the fused keep morph allocates %.0f words (budget 8,500)" words

(* --- plan cache metrics --------------------------------------------------- *)

(* A fresh context's plan cache, with the registry its compile, hit and
   eviction series record into. *)
let with_codec_metrics f =
  let reg = Obs.create () in
  f reg (Ctx.codecs (Ctx.create ~metrics:reg ()))

let test_plan_cache_compiles_once () =
  with_codec_metrics (fun reg cache ->
      let r = fmt "format C { int x; string s; }" in
      let v = Value.record [ ("x", Value.Int 1); ("s", Value.String "a") ] in
      let enc () = Codec.encoder_for ~cache ~endian:Codec.Little r in
      let payload = Codec.encode_payload (enc ()) v in
      for _ = 1 to 4 do
        ignore (Codec.encode_payload (enc ()) v);
        ignore
          (Codec.decode_payload (Codec.decoder_for ~cache ~endian:Codec.Little r) payload)
      done;
      (* one encoder + one decoder compile, every other lookup a hit *)
      Alcotest.(check int) "plan compiles" 2 (Obs.Counter.value reg "codec.plan_compiles");
      Alcotest.(check int) "cache hits" 8 (Obs.Counter.value reg "codec.plan_cache_hits"))

let test_morph_plan_cached () =
  with_codec_metrics (fun reg cache ->
      let from_ = fmt "format M { int x; int gone; }" in
      let into = fmt "format M { int x; }" in
      let payload =
        Codec.encode_payload
          (Codec.compile_encode ~endian:Codec.Little from_)
          (Value.record [ ("x", Value.Int 4); ("gone", Value.Int 9) ])
      in
      let before = Obs.Counter.value reg "codec.plan_compiles" in
      for _ = 1 to 5 do
        ignore
          (Codec.morph_payload
             (Codec.morpher_in cache ~endian:Codec.Little ~from_ ~into)
             payload)
      done;
      Alcotest.(check int) "one fused compile" (before + 1)
        (Obs.Counter.value reg "codec.plan_compiles");
      Alcotest.(check bool) "repeat lookups hit" true
        (Obs.Counter.value reg "codec.plan_cache_hits" >= 4))

(* Regression for the LRU bound: a stream of over a thousand distinct
   formats (a hostile or churning peer) must not flush the hot format's
   plan — recency keeps it resident while the one-shot plans cycle through
   the tail of the cache's 512 entries. *)
let test_plan_cache_lru_keeps_hot_format () =
  with_codec_metrics (fun reg cache ->
      let hot = fmt "format Hot { int x; string s; }" in
      let v = Value.record [ ("x", Value.Int 1); ("s", Value.String "a") ] in
      let use_hot () =
        ignore
          (Codec.encode_payload (Codec.encoder_for ~cache ~endian:Codec.Little hot) v)
      in
      use_hot ();
      let after_hot = Obs.Counter.value reg "codec.plan_compiles" in
      for i = 0 to 1039 do
        let r = fmt (Printf.sprintf "format F%d { int a%d; }" i i) in
        ignore (Codec.encoder_for ~cache ~endian:Codec.Little r);
        use_hot ()
      done;
      Alcotest.(check int) "each fresh format compiled once"
        (after_hot + 1040)
        (Obs.Counter.value reg "codec.plan_compiles");
      Alcotest.(check bool) "the churn evicted plans" true
        (Obs.Counter.value reg "codec.plan_evictions" >= 529);
      Alcotest.(check bool) "cache stayed within its bound" true
        (Codec.plan_cache_size ~cache <= 512);
      let before = Obs.Counter.value reg "codec.plan_compiles" in
      use_hot ();
      Alcotest.(check int) "hot format never recompiled" before
        (Obs.Counter.value reg "codec.plan_compiles"))

(* --- the field-map check ---------------------------------------------------- *)

(* One map per rule, each breaking only that rule: [check_map] refuses it
   and names the rule.  The map that breaks none compiles, and reads the
   source's list into a filtered list of projected elements. *)
let test_check_map_rules () =
  let src =
    fmt "record E { int id; bool on; } \
         format S { int n; E list[n]; int m; int xs[m]; string s; }"
  in
  let dst =
    fmt "record K { int id; int on; } format T { int n; string s; int c; K kept[c]; }"
  in
  let take i = Codec.Take (i, []) and zero = Codec.Const (Value.Int 0) in
  let on = Codec.Take (1, [ Codec.Coerce (Ptype.bool_, Coerce.To_int) ]) in
  let each ?(array = 1) elem = Codec.Each { array; guard = Some (1, []); elem } in
  let map ?(checks = []) slots = { Codec.slots; checks } in
  let slots = [| take 0; take 4; zero; each [| take 0; on |] |] in
  (* [slots] with slot [j] replaced by [s] *)
  let with_ j s =
    let a = Array.copy slots in
    a.(j) <- s;
    map a
  in
  let into_enum =
    Codec.Coerce (Ptype.bool_, Coerce.To_enum { ename = "C"; cases = [ ("A", 0) ] })
  in
  List.iter
    (fun (rule, m, want) ->
       match Codec.check_map ~from_:src ~into:dst m with
       | Ok _ -> Alcotest.failf "%s: accepted" rule
       | Error why ->
         Alcotest.(check bool) (rule ^ ": " ^ why) true (Helpers.contains why want))
    [ ("arity", map (Array.sub slots 0 3), "3 slots for 4 fields");
      ("a slot reads no field", with_ 1 (take 9), "reads no field 9");
      ("a check reads no field", map ~checks:[ (7, []) ] slots, "reads no field 7");
      ("an element reads no field", with_ 3 (each [| take 5; on |]), "reads no field 5");
      ("a Convert step converts",
       with_ 1 (Codec.Take (4, [ Codec.Convert (Ptype.string_, Ptype.int_) ])),
       "does not convert");
      ("a source array of records", with_ 3 (each ~array:3 [| zero; zero |]),
       "source array of no records");
      ("a target array of records", with_ 0 (each [| take 0; on |]), "target array of no records");
      ("one slot per element field", with_ 3 (each [| take 0 |]), "1 slots for 2 fields");
      ("no enum in an element map", with_ 3 (each [| take 0; Codec.Take (1, [ into_enum ]) |]),
       "coerces into an enum");
      ("no nested element map", with_ 3 (each [| take 0; each [| take 0; on |] |]),
       "nests an element map") ];
  let checked =
    match Codec.check_map ~from_:src ~into:dst (map slots) with
    | Ok c -> c
    | Error why -> Alcotest.failf "the good map: %s" why
  in
  let v =
    Value.record
      [ ("n", Value.Int 3);
        ( "list",
          Value.array_of_list
            (List.map
               (fun (id, b) -> Value.record [ ("id", Value.Int id); ("on", Value.Bool b) ])
               [ (1, true); (2, false); (3, true) ]) );
        ("m", Value.Int 1); ("xs", Value.array_of_list [ Value.Int 5 ]); ("s", Value.String "z") ]
  in
  both_endians (fun endian ->
      let m = Codec.compile_map_in (Codec.create_cache ()) ~endian checked in
      let elem id = Value.record [ ("id", Value.Int id); ("on", Value.Int 1) ] in
      Alcotest.check Helpers.value "the good map reads the filtered list"
        (Value.record
           [ ("n", Value.Int 3); ("s", Value.String "z"); ("c", Value.Int 2);
             ("kept", Value.array_of_list [ elem 1; elem 3 ]) ])
        (Codec.morph_payload m (Codec.Interp.encode_payload ~endian src v)))

let suite =
  [
    Alcotest.test_case "check_map names the rule a map breaks" `Quick test_check_map_rules;
    Alcotest.test_case "compiled = interpretive on fixtures" `Quick
      test_fixture_equivalence;
    Alcotest.test_case "unknown enum value rejected on both paths" `Quick
      test_unknown_enum_rejected_both_paths;
    Alcotest.test_case "int->enum unknown value falls back" `Quick
      test_int_to_enum_unknown_falls_back;
    Alcotest.test_case "enum->enum unmapped case falls back" `Quick
      test_enum_to_enum_unmapped_falls_back;
    Alcotest.test_case "fused = staged on fixtures" `Quick
      test_fused_equals_staged_on_fixtures;
    Alcotest.test_case "fused reads skipped length fields" `Quick
      test_fused_skipped_length_field_still_sizes;
    Alcotest.test_case "hostile lengths rejected cheaply" `Quick
      test_hostile_length_rejected_cheaply;
    Alcotest.test_case "truncated coalesced skips rejected" `Quick
      test_truncated_coalesced_skip_rejected;
    Alcotest.test_case "nested maps agree with the interpreter" `Quick
      test_nested_maps_agree_with_interp;
    Alcotest.test_case "fused keep morph allocation budget" `Quick
      test_fused_keep_alloc_budget;
    Alcotest.test_case "plan cache compiles once" `Quick test_plan_cache_compiles_once;
    Alcotest.test_case "fused plans cached" `Quick test_morph_plan_cached;
    Alcotest.test_case "lru keeps the hot format under churn" `Quick
      test_plan_cache_lru_keeps_hot_format;
  ]
