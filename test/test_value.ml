(* Unit tests for Pbio.Value: dynamic values, accessors, defaults, deep
   operations and length-field synchronisation. *)

open Pbio

let test_accessors () =
  Alcotest.(check int) "int" 42 (Value.to_int (Value.Int 42));
  Alcotest.(check int) "uint" 7 (Value.to_int (Value.Uint 7));
  Alcotest.(check int) "char" 65 (Value.to_int (Value.Char 'A'));
  Alcotest.(check int) "bool" 1 (Value.to_int (Value.Bool true));
  Alcotest.(check int) "enum" 5 (Value.to_int (Value.Enum ("blue", 5)));
  Alcotest.(check (float 1e-9)) "float of int" 3.0 (Value.to_float (Value.Int 3));
  Alcotest.(check bool) "bool of int" true (Value.to_bool (Value.Int (-2)));
  Alcotest.(check bool) "bool of float" false (Value.to_bool (Value.Float 0.0));
  Alcotest.(check string) "string" "hi" (Value.to_string_exn (Value.String "hi"))

let test_accessor_type_errors () =
  let expect_type_error f =
    try
      ignore (f ());
      Alcotest.fail "expected Type_error"
    with Value.Type_error _ -> ()
  in
  expect_type_error (fun () -> Value.to_int (Value.String "x"));
  expect_type_error (fun () -> Value.to_int (Value.Float 1.0));
  expect_type_error (fun () -> Value.to_float (Value.String "x"));
  expect_type_error (fun () -> Value.to_string_exn (Value.Int 1));
  expect_type_error (fun () -> Value.get_field (Value.Int 1) "f");
  expect_type_error (fun () -> Value.get_field (Value.record []) "missing");
  expect_type_error (fun () -> Value.array_get (Value.record []) 0)

let test_record_fields () =
  let r = Value.record [ ("a", Value.Int 1); ("b", Value.String "x") ] in
  Alcotest.(check bool) "has a" true (Value.has_field r "a");
  Alcotest.(check bool) "no c" false (Value.has_field r "c");
  Value.set_field r "a" (Value.Int 9);
  Alcotest.(check int) "updated" 9 (Value.to_int (Value.get_field r "a"));
  Alcotest.check Helpers.value "field_at" (Value.String "x") (Value.field_at r 1);
  Value.set_at r 1 (Value.String "y");
  Alcotest.(check string) "set_at" "y" (Value.to_string_exn (Value.get_field r "b"))

let test_array_ops () =
  let a = Value.array_of_list [ Value.Int 1; Value.Int 2 ] in
  Alcotest.(check int) "len" 2 (Value.array_len a);
  Alcotest.(check int) "get" 2 (Value.to_int (Value.array_get a 1));
  Value.array_push a (Value.Int 3);
  Alcotest.(check int) "push len" 3 (Value.array_len a);
  Value.array_set ~fill:(Value.Int 0) a 1 (Value.Int 20);
  Alcotest.(check int) "set" 20 (Value.to_int (Value.array_get a 1));
  (* growth beyond the end fills the gap *)
  Value.array_set ~fill:(Value.Int 7) a 5 (Value.Int 50);
  Alcotest.(check int) "grown len" 6 (Value.array_len a);
  Alcotest.(check int) "grown end" 50 (Value.to_int (Value.array_get a 5));
  Alcotest.(check int) "gap filled" 7 (Value.to_int (Value.array_get a 4));
  (* an index no array can reach is refused before anything grows *)
  (match Value.array_set ~fill:(Value.Int 0) a Sys.max_array_length (Value.Int 1) with
   | () -> Alcotest.fail "expected a refused index"
   | exception Value.Type_error _ -> Alcotest.(check int) "len unchanged" 6 (Value.array_len a));
  Value.array_truncate a 2;
  Alcotest.(check int) "truncated" 2 (Value.array_len a);
  (try
     ignore (Value.array_get a 2);
     Alcotest.fail "expected out of bounds"
   with Value.Type_error _ -> ())

let test_copy_is_deep () =
  let inner = Value.record [ ("x", Value.Int 1) ] in
  let v = Value.record [ ("inner", inner); ("xs", Value.array_of_list [ Value.Int 5 ]) ] in
  let c = Value.copy v in
  Value.set_field inner "x" (Value.Int 99);
  Value.array_set ~fill:(Value.Int 0) (Value.get_field v "xs") 0 (Value.Int 50);
  Alcotest.(check int) "nested record isolated" 1
    (Value.to_int (Value.get_field (Value.get_field c "inner") "x"));
  Alcotest.(check int) "array isolated" 5
    (Value.to_int (Value.array_get (Value.get_field c "xs") 0));
  (* records of 0 to 6 fields, each field a record holding a nested
     record and an array: every arity [copy] builds a record at, each
     isolated in both directions *)
  let name i = Printf.sprintf "f%d" i in
  let field i =
    ( name i,
      Value.record
        [ ("r", Value.record [ ("x", Value.Int i) ]); ("xs", Value.array_of_list [ Value.Int i ]) ] )
  in
  let poke v i k =
    let f = Value.get_field v (name i) in
    Value.set_field (Value.get_field f "r") "x" (Value.Int k);
    Value.array_set ~fill:(Value.Int 0) (Value.get_field f "xs") 0 (Value.Int k)
  in
  let peek v i =
    let f = Value.get_field v (name i) in
    ( Value.to_int (Value.get_field (Value.get_field f "r") "x"),
      Value.to_int (Value.array_get (Value.get_field f "xs") 0) )
  in
  let names v = Array.to_list (Array.map (fun (e : Value.entry) -> e.name) (Value.entries v)) in
  for n = 0 to 6 do
    let what s = Printf.sprintf "%d fields: %s" n s in
    let v = Value.record (List.init n field) in
    let c = Value.copy v in
    Alcotest.(check bool) (what "equal") true (Value.equal v c);
    Alcotest.(check (list string)) (what "names") (names v) (names c);
    for i = 0 to n - 1 do poke v i 99 done;
    for i = 0 to n - 1 do
      Alcotest.(check (pair int int)) (what "copy isolated from the original") (i, i) (peek c i)
    done;
    for i = 0 to n - 1 do
      poke c i 77;
      Value.set_field c (name i) (Value.Int i)
    done;
    for i = 0 to n - 1 do
      Alcotest.(check (pair int int)) (what "original isolated from the copy") (99, 99) (peek v i)
    done
  done

let test_equal () =
  let v1 = Helpers.sample_v2 3 in
  let v2 = Helpers.sample_v2 3 in
  Alcotest.(check bool) "structurally equal" true (Value.equal v1 v2);
  Value.set_field v2 "channel" (Value.String "other");
  Alcotest.(check bool) "detects difference" false (Value.equal v1 v2);
  Alcotest.(check bool) "different shapes" false
    (Value.equal (Value.Int 1) (Value.Float 1.0))

let test_defaults () =
  let fmt =
    Ptype_dsl.format_of_string_exn
      {|format D {
          int a = 7; float b = 2.5; string s = "hey"; bool t = true; char c = 'z';
          int plain;
          int n;
          int xs[n];
          int fixed[3];
        }|}
  in
  let v = Value.default_record fmt in
  Alcotest.(check int) "int default" 7 (Value.to_int (Value.get_field v "a"));
  Alcotest.(check (float 1e-9)) "float default" 2.5 (Value.to_float (Value.get_field v "b"));
  Alcotest.(check string) "string default" "hey" (Value.to_string_exn (Value.get_field v "s"));
  Alcotest.(check bool) "bool default" true (Value.to_bool (Value.get_field v "t"));
  Alcotest.(check int) "char default" (Char.code 'z') (Value.to_int (Value.get_field v "c"));
  Alcotest.(check int) "plain zero" 0 (Value.to_int (Value.get_field v "plain"));
  Alcotest.(check int) "var array empty" 0 (Value.array_len (Value.get_field v "xs"));
  Alcotest.(check int) "fixed array sized" 3 (Value.array_len (Value.get_field v "fixed"));
  Alcotest.(check bool) "default conforms" true (Value.conforms (Ptype.Record fmt) v)

let test_of_const_enum () =
  let e = { Ptype.ename = "c"; cases = [ ("on", 1); ("off", 0) ] } in
  Alcotest.check Helpers.value "by name" (Value.Enum ("off", 0))
    (Value.of_const (Ptype.Cenum "off") ~ty:(Ptype.Enum e));
  Alcotest.check Helpers.value "by value" (Value.Enum ("on", 1))
    (Value.of_const (Ptype.Cint 1) ~ty:(Ptype.Enum e));
  (try
     ignore (Value.of_const (Ptype.Cenum "nope") ~ty:(Ptype.Enum e));
     Alcotest.fail "expected Type_error"
   with Value.Type_error _ -> ())

let test_conforms () =
  let v = Helpers.sample_v2 4 in
  Alcotest.(check bool) "v2 sample conforms to v2" true
    (Value.conforms (Ptype.Record Helpers.response_v2) v);
  Alcotest.(check bool) "v2 sample does not conform to v1" false
    (Value.conforms (Ptype.Record Helpers.response_v1) v);
  (* negative uint breaks conformance *)
  Alcotest.(check bool) "uint must be non-negative" false
    (Value.conforms Ptype.uint (Value.Uint (-1)))

let test_sync_lengths () =
  let v = Helpers.sample_v2 5 in
  Value.set_field v "member_count" (Value.Int 0);
  Value.sync_lengths Helpers.response_v2 v;
  Alcotest.(check int) "resynced" 5 (Value.to_int (Value.get_field v "member_count"))

(* Variable arrays nested inside array elements, fixed-array elements and
   a nested record; one length field is unsigned. *)
let nested_fmt =
  Ptype_dsl.format_of_string_exn
    {|record Inner { unsigned k; int ks[k]; string tag; }
      format Outer { int n; Inner items[n]; Inner fixed[2]; Inner one; }|}

let test_sync_nested () =
  let v = Value.default_record nested_fmt in
  let push_ks inner xs =
    List.iter (fun x -> Value.array_push (Value.get_field inner "ks") (Value.Int x)) xs
  in
  let default_inner = Value.copy (Value.get_field v "one") in
  let items = Value.get_field v "items" in
  List.iter
    (fun xs ->
       let inner = Value.copy default_inner in
       push_ks inner xs;
       Value.array_push items inner)
    [ [ 1; 2; 3 ]; []; [ 4 ] ];
  push_ks (Value.array_get (Value.get_field v "fixed") 1) [ 9 ];
  push_ks (Value.get_field v "one") [ 8; 7 ];
  Value.sync_lengths nested_fmt v;
  let k e = Value.get_field e "k" in
  Alcotest.check Helpers.value "outer length" (Value.Int 3) (Value.get_field v "n");
  List.iteri
    (fun i want ->
       Alcotest.check Helpers.value (Printf.sprintf "items[%d].k stays unsigned" i)
         (Value.Uint want) (k (Value.array_get items i)))
    [ 3; 0; 1 ];
  Alcotest.check Helpers.value "fixed[1].k" (Value.Uint 1)
    (k (Value.array_get (Value.get_field v "fixed") 1));
  Alcotest.check Helpers.value "one.k" (Value.Uint 2) (k (Value.get_field v "one"));
  Alcotest.(check bool) "conforms" true (Value.conforms (Ptype.Record nested_fmt) v)

let test_sync_missing_length_field () =
  let expect_type_error what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Type_error" what
    | exception Value.Type_error _ -> ()
  in
  (* the format names a length field it does not declare *)
  let broken = Ptype.record "R" [ Ptype.field "xs" (Ptype.array_var "n" Ptype.int_) ] in
  expect_type_error "format without the field" (fun () ->
      Value.sync_lengths broken
        (Value.record [ ("xs", Value.array_of_list [ Value.Int 1 ]) ]));
  (* the value lacks a length field its format declares *)
  let fmt = Ptype_dsl.format_of_string_exn "format R { int n; int xs[n]; }" in
  expect_type_error "value without the field" (fun () ->
      Value.sync_lengths fmt
        (Value.record [ ("m", Value.Int 0); ("xs", Value.array_of_list [ Value.Int 1 ]) ]))

(* A keep-most target whose elements hold no variable array: syncing it
   must not walk the member list. *)
let channel_trim =
  Ptype.record "ChannelOpenResponse"
    [
      Ptype.field "channel" Ptype.string_;
      Ptype.field "member_count" Ptype.int_;
      Ptype.field "member_list"
        (Ptype.array_var "member_count" (Ptype.Record Helpers.member_v1));
    ]

let trim_value n =
  Value.record
    [
      ("channel", Value.String "c");
      ("member_count", Value.Int n);
      ( "member_list",
        Value.array_of_list
          (List.init n (fun i ->
               Echo.Wire_formats.member_v1_value ~host:"h" ~port:i ~id:i)) );
    ]

let test_sync_alloc_flat () =
  let small = trim_value 10 and large = trim_value 1000 in
  let one_shot v () = Value.sync_lengths channel_trim v in
  Alcotest.(check (float 0.5)) "one-shot sync: same bytes at 10 and 1000 members"
    (Helpers.alloc_per_call (one_shot small))
    (Helpers.alloc_per_call (one_shot large));
  let plan = Value.compile_sync channel_trim in
  let nothing = Helpers.alloc_per_call (fun () -> ()) in
  Alcotest.(check (float 0.5)) "compiled plan allocates nothing" nothing
    (Helpers.alloc_per_call (fun () -> plan large))

let test_pp_smoke () =
  let s = Value.to_string (Helpers.sample_v2 2) in
  Alcotest.(check bool) "mentions field" true
    (Helpers.contains s "member_count")

let test_sizeof_unencoded_model () =
  (* the C-layout model behind Table 1's "unencoded" rows: 4-byte ints and
     bools, 8-byte floats, 1-byte chars, strings with a NUL terminator *)
  let fmt =
    Ptype_dsl.format_of_string_exn
      "format S { int a; bool b; float f; char c; string s; }"
  in
  let v =
    Value.record
      [ ("a", Value.Int 1); ("b", Value.Bool true); ("f", Value.Float 2.0);
        ("c", Value.Char 'x'); ("s", Value.String "abcde") ]
  in
  Alcotest.(check int) "4+4+8+1+(5+1)" 23 (Sizeof.unencoded fmt v);
  (* variable arrays scale linearly with their element count *)
  let base = Sizeof.unencoded Helpers.response_v2 (Helpers.sample_v2 0) in
  let one = Sizeof.unencoded Helpers.response_v2 (Helpers.sample_v2 1) in
  let ten = Sizeof.unencoded Helpers.response_v2 (Helpers.sample_v2 10) in
  Alcotest.(check int) "linear in members" (base + (10 * (one - base))) ten

(* --- properties ---------------------------------------------------------------- *)

let prop_copy_equal =
  QCheck.Test.make ~name:"copy is equal" ~count:200 Helpers.arb_format_and_value
    (fun (_, v) -> Value.equal v (Value.copy v))

let prop_default_conforms =
  QCheck.Test.make ~name:"default value conforms to its format" ~count:200
    Helpers.arb_format (fun r ->
        Value.conforms (Ptype.Record r) (Value.default_record r))

let prop_generated_value_conforms =
  QCheck.Test.make ~name:"generated values conform" ~count:200
    Helpers.arb_format_and_value (fun (r, v) -> Value.conforms (Ptype.Record r) v)

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "accessor type errors" `Quick test_accessor_type_errors;
    Alcotest.test_case "record fields" `Quick test_record_fields;
    Alcotest.test_case "array operations" `Quick test_array_ops;
    Alcotest.test_case "copy is deep" `Quick test_copy_is_deep;
    Alcotest.test_case "equality" `Quick test_equal;
    Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "of_const on enums" `Quick test_of_const_enum;
    Alcotest.test_case "conforms" `Quick test_conforms;
    Alcotest.test_case "sync_lengths" `Quick test_sync_lengths;
    Alcotest.test_case "pretty-printer" `Quick test_pp_smoke;
    Alcotest.test_case "sizeof: unencoded C-layout model" `Quick test_sizeof_unencoded_model;
    Helpers.qtest prop_copy_equal;
    Helpers.qtest prop_default_conforms;
    Helpers.qtest prop_generated_value_conforms;
    Alcotest.test_case "sync: arrays nested in elements" `Quick test_sync_nested;
    Alcotest.test_case "sync: missing length field" `Quick test_sync_missing_length_field;
    Alcotest.test_case "sync: allocation flat in members" `Quick test_sync_alloc_flat;
  ]
