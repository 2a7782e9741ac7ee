(* Tests for the compiled structural conversion (Pbio.Convert): the
   imperfect-match machinery of Algorithm 2 lines 26-29. *)

open Pbio

let fmt = Ptype_dsl.format_of_string_exn

let conv ~from_ ~into v = Helpers.check_ok_err (Convert.convert ~from_ ~into v)

let test_identity () =
  let v = Helpers.sample_v2 3 in
  let out = conv ~from_:Helpers.response_v2 ~into:Helpers.response_v2 v in
  Alcotest.check Helpers.value "identity conversion" v out

let test_reorder () =
  let a = fmt "format R { int x; string s; float f; }" in
  let b = fmt "format R { float f; int x; string s; }" in
  let v = Value.record [ ("x", Value.Int 1); ("s", Value.String "q"); ("f", Value.Float 2.0) ] in
  let out = conv ~from_:a ~into:b v in
  Alcotest.(check int) "x" 1 (Value.to_int (Value.get_field out "x"));
  Alcotest.(check string) "s" "q" (Value.to_string_exn (Value.get_field out "s"));
  Alcotest.(check (float 0.0)) "f" 2.0 (Value.to_float (Value.get_field out "f"));
  Alcotest.(check bool) "conforms to target" true (Value.conforms (Ptype.Record b) out)

let test_missing_fields_take_defaults () =
  let a = fmt "format R { int x; }" in
  let b = fmt {|format R { int x; int extra = 9; string note = "n/a"; }|} in
  let out = conv ~from_:a ~into:b (Value.record [ ("x", Value.Int 5) ]) in
  Alcotest.(check int) "kept" 5 (Value.to_int (Value.get_field out "x"));
  Alcotest.(check int) "default int" 9 (Value.to_int (Value.get_field out "extra"));
  Alcotest.(check string) "default string" "n/a" (Value.to_string_exn (Value.get_field out "note"))

let test_extra_fields_dropped () =
  let a = fmt "format R { int x; int gone; }" in
  let b = fmt "format R { int x; }" in
  let out = conv ~from_:a ~into:b (Value.record [ ("x", Value.Int 5); ("gone", Value.Int 1) ]) in
  Alcotest.(check bool) "dropped" false (Value.has_field out "gone")

let test_numeric_coercions () =
  let a = fmt "format R { int i; float f; char c; bool b; unsigned u; }" in
  let b = fmt "format R { float i; int f; int c; int b; int u; }" in
  let v =
    Value.record
      [
        ("i", Value.Int 3);
        ("f", Value.Float 2.9);
        ("c", Value.Char 'A');
        ("b", Value.Bool true);
        ("u", Value.Uint 17);
      ]
  in
  let out = conv ~from_:a ~into:b v in
  Alcotest.(check (float 0.0)) "int->float" 3.0 (Value.to_float (Value.get_field out "i"));
  Alcotest.(check int) "float->int truncates" 2 (Value.to_int (Value.get_field out "f"));
  Alcotest.(check int) "char->int" 65 (Value.to_int (Value.get_field out "c"));
  Alcotest.(check int) "bool->int" 1 (Value.to_int (Value.get_field out "b"));
  Alcotest.(check int) "uint->int" 17 (Value.to_int (Value.get_field out "u"))

let test_string_mismatch_defaults () =
  (* string <-> numeric has no coercion: target takes default *)
  let a = fmt "format R { int x; }" in
  let b = fmt {|format R { string x = "fallback"; }|} in
  let out = conv ~from_:a ~into:b (Value.record [ ("x", Value.Int 1) ]) in
  Alcotest.(check string) "default used" "fallback" (Value.to_string_exn (Value.get_field out "x"))

let test_enum_mapping_by_name () =
  let a =
    fmt {| enum state { idle = 0, busy = 1 } format R { state s; } |}
  in
  let b =
    fmt {| enum state { busy = 5, idle = 6 } format R { state s; } |}
  in
  let out = conv ~from_:a ~into:b (Value.record [ ("s", Value.Enum ("busy", 1)) ]) in
  Alcotest.check Helpers.value "renumbered by case name" (Value.Enum ("busy", 5))
    (Value.get_field out "s")

let test_nested_records () =
  let a = fmt "record In { int x; int y; } format R { In inner; }" in
  let b = fmt "record In { int y; int z = 4; } format R { In inner; }" in
  let v = Value.record [ ("inner", Value.record [ ("x", Value.Int 1); ("y", Value.Int 2) ]) ] in
  let out = conv ~from_:a ~into:b v in
  let inner = Value.get_field out "inner" in
  Alcotest.(check int) "kept y" 2 (Value.to_int (Value.get_field inner "y"));
  Alcotest.(check int) "default z" 4 (Value.to_int (Value.get_field inner "z"));
  Alcotest.(check bool) "x dropped" false (Value.has_field inner "x")

let test_var_arrays () =
  let a = fmt "record E { int x; } format R { int n; E xs[n]; }" in
  let b = fmt "record E { int x; int y = 1; } format R { int n; E xs[n]; }" in
  let v =
    Value.record
      [
        ("n", Value.Int 2);
        ("xs",
         Value.array_of_list
           [ Value.record [ ("x", Value.Int 10) ]; Value.record [ ("x", Value.Int 20) ] ]);
      ]
  in
  let out = conv ~from_:a ~into:b v in
  Alcotest.(check int) "length preserved" 2 (Value.array_len (Value.get_field out "xs"));
  Alcotest.(check int) "elem converted" 1
    (Value.to_int (Value.get_field (Value.array_get (Value.get_field out "xs") 0) "y"));
  Alcotest.(check int) "count synced" 2 (Value.to_int (Value.get_field out "n"))

let test_fixed_array_pad_truncate () =
  let a = fmt "format R { int xs[2]; }" in
  let pad = fmt "format R { int xs[4]; }" in
  let cut = fmt "format R { int xs[1]; }" in
  let v = Value.record [ ("xs", Value.array_of_list [ Value.Int 7; Value.Int 8 ]) ] in
  let padded = conv ~from_:a ~into:pad v in
  Alcotest.(check int) "padded length" 4 (Value.array_len (Value.get_field padded "xs"));
  Alcotest.(check int) "pad fill" 0 (Value.to_int (Value.array_get (Value.get_field padded "xs") 3));
  let truncated = conv ~from_:a ~into:cut v in
  Alcotest.(check int) "truncated" 1 (Value.array_len (Value.get_field truncated "xs"))

let test_array_length_resync_after_truncation () =
  (* a var array whose length field exists in both formats: after conversion
     the length field must match the converted array length, not the
     source's *)
  let a = fmt "format R { int n; int xs[n]; }" in
  let b = fmt "format R { int n; float xs[n]; }" in
  let v = Value.record [ ("n", Value.Int 3);
                         ("xs", Value.array_of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ]) ] in
  let out = conv ~from_:a ~into:b v in
  Alcotest.(check int) "n synced" 3 (Value.to_int (Value.get_field out "n"));
  Alcotest.(check (float 0.0)) "coerced elems" 2.0
    (Value.to_float (Value.array_get (Value.get_field out "xs") 1));
  Alcotest.(check bool) "conforms" true (Value.conforms (Ptype.Record b) out)

let test_kind_mismatch_defaults () =
  (* same name but record vs basic: no conversion, default wins *)
  let a = fmt "format R { int x; }" in
  let b = fmt "record P { int a; } format R { P x; }" in
  let out = conv ~from_:a ~into:b (Value.record [ ("x", Value.Int 3) ]) in
  Alcotest.(check bool) "conforms" true (Value.conforms (Ptype.Record b) out);
  Alcotest.(check int) "default nested" 0
    (Value.to_int (Value.get_field (Value.get_field out "x") "a"))

let test_compiled_conv_reusable () =
  let plan = Convert.compile ~from_:Helpers.response_v2 ~into:Helpers.response_v2 in
  let a = plan (Helpers.sample_v2 2) in
  let b = plan (Helpers.sample_v2 5) in
  Alcotest.(check int) "first" 2 (Value.array_len (Value.get_field a "member_list"));
  Alcotest.(check int) "second" 5 (Value.array_len (Value.get_field b "member_list"))

(* --- properties ------------------------------------------------------------------ *)

let prop_convert_conforms =
  QCheck.Test.make ~name:"conversion output conforms to target format" ~count:200
    QCheck.(pair Helpers.arb_format_and_value Helpers.arb_format)
    (fun ((src, v), dst) ->
       match Convert.convert ~from_:src ~into:dst v with
       | Ok out -> Value.conforms (Ptype.Record dst) out
       | Error _ -> false)

let prop_identity_conversion =
  QCheck.Test.make ~name:"converting to the same format preserves the value" ~count:200
    Helpers.arb_format_and_value (fun (r, v) ->
        match Convert.convert ~from_:r ~into:r v with
        | Ok v' -> Value.equal v v'
        | Error _ -> false)

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "field reorder" `Quick test_reorder;
    Alcotest.test_case "missing fields take defaults" `Quick test_missing_fields_take_defaults;
    Alcotest.test_case "extra fields dropped" `Quick test_extra_fields_dropped;
    Alcotest.test_case "numeric coercions" `Quick test_numeric_coercions;
    Alcotest.test_case "string/number mismatch -> default" `Quick test_string_mismatch_defaults;
    Alcotest.test_case "enum mapping by case name" `Quick test_enum_mapping_by_name;
    Alcotest.test_case "nested records" `Quick test_nested_records;
    Alcotest.test_case "variable arrays" `Quick test_var_arrays;
    Alcotest.test_case "fixed arrays pad and truncate" `Quick test_fixed_array_pad_truncate;
    Alcotest.test_case "length fields resync" `Quick test_array_length_resync_after_truncation;
    Alcotest.test_case "kind mismatch -> default" `Quick test_kind_mismatch_defaults;
    Alcotest.test_case "compiled plan is reusable" `Quick test_compiled_conv_reusable;
    Helpers.qtest prop_convert_conforms;
    Helpers.qtest prop_identity_conversion;
  ]
