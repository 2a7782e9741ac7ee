(* Tests for the XML substrate: parser, printer and the PBIO<->XML value
   mapping used by the evaluation baselines. *)

open Pbio
module Xml = Xmlkit.Xml
module Xml_parser = Xmlkit.Xml_parser
module Xml_print = Xmlkit.Xml_print
module Pbio_xml = Xmlkit.Pbio_xml

let parse s = Helpers.check_ok (Xml_parser.parse s)

let parse_err s =
  match Xml_parser.parse s with
  | Ok _ -> Alcotest.failf "expected XML error for %S" s
  | Error _ -> ()

let test_parse_basic () =
  let doc = parse "<a><b>text</b><c/></a>" in
  (match doc with
   | Xml.Element e ->
     Alcotest.(check string) "root" "a" e.tag;
     Alcotest.(check int) "children" 2 (List.length e.children)
   | Xml.Text _ -> Alcotest.fail "expected element");
  Alcotest.(check string) "text content" "text" (Xml.text_content doc)

let test_parse_attributes () =
  let doc = parse {|<a x="1" y='two &amp; three'><b z="q"/></a>|} in
  match doc with
  | Xml.Element e ->
    Alcotest.(check (option string)) "x" (Some "1") (Xml.attr e "x");
    Alcotest.(check (option string)) "entity in attr" (Some "two & three") (Xml.attr e "y");
    Alcotest.(check (option string)) "missing" None (Xml.attr e "nope")
  | Xml.Text _ -> Alcotest.fail "expected element"

let test_parse_entities () =
  Alcotest.(check string) "five entities" "<>&\"'"
    (Xml.text_content (parse "<a>&lt;&gt;&amp;&quot;&apos;</a>"));
  Alcotest.(check string) "numeric" "A B"
    (Xml.text_content (parse "<a>&#65;&#x20;&#66;</a>"));
  Alcotest.(check string) "utf8 ref" "\xe2\x82\xac"
    (Xml.text_content (parse "<a>&#8364;</a>"))

let test_parse_cdata_comments_pi_doctype () =
  let doc =
    parse
      {|<?xml version="1.0"?><!DOCTYPE a><!-- hi --><a><!-- in --><![CDATA[<raw>&amp;]]><?pi data?></a>|}
  in
  Alcotest.(check string) "cdata verbatim" "<raw>&amp;" (Xml.text_content doc)

let test_parse_mixed_content () =
  let doc = parse {|<a x="1">hi<b/>bye</a>|} in
  Alcotest.check Helpers.xml "tree"
    (Xml.element "a" ~attrs:[ ("x", "1") ]
       [ Xml.text "hi"; Xml.element "b" []; Xml.text "bye" ])
    doc;
  match Xml.children doc with
  | [ Xml.Text "hi"; Xml.Element { tag = "b"; attrs = []; children = [] }; Xml.Text "bye" ]
    -> ()
  | cs -> Alcotest.failf "children out of document order (%d nodes)" (List.length cs)

let test_parse_errors () =
  parse_err "";
  parse_err "no markup";
  parse_err "<a>";
  parse_err "<a></b>";
  parse_err "<a><b></a></b>";
  parse_err "<a attr></a>";
  parse_err "<a>&unknown;</a>";
  parse_err "<a></a><b></b>";
  parse_err "<a>trailing</a>junk"

let test_print_roundtrip () =
  let doc =
    Xml.element "root" ~attrs:[ ("k", "v\"<>&") ]
      [
        Xml.text "plain & <escaped>";
        Xml.element "empty" [];
        Xml.element "nested" [ Xml.text "x" ];
      ]
  in
  let s = Xml_print.to_string doc in
  Alcotest.check Helpers.xml "roundtrip" doc (parse s)

let test_equal_ignores_blank_text () =
  let a = parse "<a><b>x</b></a>" in
  let b = parse "<a>\n  <b>x</b>\n</a>" in
  Alcotest.(check bool) "blank-insensitive" true (Xml.equal a b)

(* --- PBIO value <-> XML ------------------------------------------------------- *)

let test_pbio_xml_roundtrip () =
  let v = Helpers.sample_v2 5 in
  let s = Pbio_xml.encode Helpers.response_v2 v in
  let back = Helpers.check_ok_err (Pbio_xml.decode Helpers.response_v2 s) in
  Alcotest.check Helpers.value "roundtrip" v back

let test_pbio_xml_tree_and_string_agree () =
  let v = Helpers.sample_v2 3 in
  let tree = Pbio_xml.to_xml Helpers.response_v2 v in
  let s = Pbio_xml.encode Helpers.response_v2 v in
  Alcotest.check Helpers.xml "same document" tree (parse s)

let test_pbio_xml_missing_fields_default () =
  let fmt =
    Ptype_dsl.format_of_string_exn {|format F { int x; string s = "dflt"; int y = 3; }|}
  in
  let v = Helpers.check_ok_err (Pbio_xml.decode fmt "<F><x>9</x></F>") in
  Alcotest.(check int) "present" 9 (Value.to_int (Value.get_field v "x"));
  Alcotest.(check string) "missing string keeps zero default" ""
    (Value.to_string_exn (Value.get_field v "s"));
  Alcotest.(check int) "missing int" 0 (Value.to_int (Value.get_field v "y"))

let test_pbio_xml_unknown_elements_ignored () =
  (* XML-style tolerance: unknown elements in a message do not break an old
     reader (paper, Section 2) *)
  let fmt = Ptype_dsl.format_of_string_exn "format F { int x; }" in
  let v = Helpers.check_ok_err (Pbio_xml.decode fmt "<F><x>1</x><added>zzz</added></F>") in
  Alcotest.(check int) "parsed" 1 (Value.to_int (Value.get_field v "x"))

let test_pbio_xml_arrays_and_counts () =
  let fmt = Ptype_dsl.format_of_string_exn "format F { int n; int xs[n]; }" in
  (* the count element disagrees with the actual list: the decoder trusts
     the actual elements and resyncs *)
  let v = Helpers.check_ok_err (Pbio_xml.decode fmt "<F><n>99</n><xs>1</xs><xs>2</xs></F>") in
  Alcotest.(check int) "resynced count" 2 (Value.to_int (Value.get_field v "n"));
  Alcotest.(check int) "len" 2 (Value.array_len (Value.get_field v "xs"))

(* The Figs 8-10 XML baselines parse a Fig. 5 message into one element
   per array member, after the element that carries the count. *)
let test_pbio_xml_one_element_per_member () =
  let doc = parse (Pbio_xml.encode Helpers.response_v2 (Helpers.sample_v2 37)) in
  let named tag =
    List.filter (fun (e : Xml.element) -> e.Xml.tag = tag) (Xml.child_elements doc)
  in
  Alcotest.(check int) "member elements" 37 (List.length (named "member_list"));
  match named "member_count" with
  | [ count ] ->
    Alcotest.(check string) "count element" "37" (Xml.text_content (Xml.Element count))
  | es -> Alcotest.failf "expected one member_count element, got %d" (List.length es)

let test_pbio_xml_bad_scalars () =
  let fmt = Ptype_dsl.format_of_string_exn "format F { int x; }" in
  (match Pbio_xml.decode fmt "<F><x>notanint</x></F>" with
   | Ok _ -> Alcotest.fail "expected decode error"
   | Error _ -> ())

let test_pbio_xml_escaping () =
  let fmt = Ptype_dsl.format_of_string_exn "format F { string s; }" in
  let v = Value.record [ ("s", Value.String "<a & \"b\">") ] in
  let s = Pbio_xml.encode fmt v in
  Alcotest.check Helpers.value "escapes survive" v
    (Helpers.check_ok_err (Pbio_xml.decode fmt s))

let test_xml_size_blowup () =
  (* Table 1: the XML encoding is several times the binary/unencoded size *)
  let v = Helpers.sample_v2 100 in
  let xml = String.length (Pbio_xml.encode Helpers.response_v2 v) in
  let wire = String.length (Wire.encode ~format_id:1 Helpers.response_v2 v) in
  Alcotest.(check bool) "xml at least 2x the binary" true (xml > 2 * wire)

(* --- properties ------------------------------------------------------------------ *)

(* Exclude Char fields: XML text cannot represent control characters
   faithfully without numeric refs the encoder does not emit. *)
let rec char_free_type (t : Ptype.t) =
  match t with
  | Ptype.Basic Char -> false
  | Ptype.Basic _ -> true
  | Ptype.Record r -> char_free r
  | Ptype.Array a -> char_free_type a.elem

and char_free (r : Ptype.record) =
  List.for_all (fun f -> char_free_type f.Ptype.ftype) r.Ptype.fields

let prop_pbio_xml_roundtrip =
  QCheck.Test.make ~name:"pbio-xml roundtrip for random formats" ~count:200
    Helpers.arb_format_and_value (fun (r, v) ->
        QCheck.assume (char_free r);
        match Pbio_xml.decode r (Pbio_xml.encode r v) with
        | Ok back -> Value.equal v back
        | Error _ -> false)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip of value trees" ~count:200
    Helpers.arb_format_and_value (fun (r, v) ->
        QCheck.assume (char_free r);
        let tree = Pbio_xml.to_xml r v in
        match Xml_parser.parse (Xml_print.to_string tree) with
        | Ok back -> Xml.equal tree back
        | Error _ -> false)

let suite =
  [
    Alcotest.test_case "parse: elements and text" `Quick test_parse_basic;
    Alcotest.test_case "parse: attributes" `Quick test_parse_attributes;
    Alcotest.test_case "parse: entities" `Quick test_parse_entities;
    Alcotest.test_case "parse: cdata/comments/pi/doctype" `Quick
      test_parse_cdata_comments_pi_doctype;
    Alcotest.test_case "parse: mixed content in document order" `Quick
      test_parse_mixed_content;
    Alcotest.test_case "parse: errors" `Quick test_parse_errors;
    Alcotest.test_case "print/parse roundtrip" `Quick test_print_roundtrip;
    Alcotest.test_case "equality ignores blank text" `Quick test_equal_ignores_blank_text;
    Alcotest.test_case "pbio-xml: roundtrip" `Quick test_pbio_xml_roundtrip;
    Alcotest.test_case "pbio-xml: tree and string agree" `Quick
      test_pbio_xml_tree_and_string_agree;
    Alcotest.test_case "pbio-xml: missing fields default" `Quick
      test_pbio_xml_missing_fields_default;
    Alcotest.test_case "pbio-xml: unknown elements ignored" `Quick
      test_pbio_xml_unknown_elements_ignored;
    Alcotest.test_case "pbio-xml: array counts resync" `Quick test_pbio_xml_arrays_and_counts;
    Alcotest.test_case "pbio-xml: one element per array member" `Quick
      test_pbio_xml_one_element_per_member;
    Alcotest.test_case "pbio-xml: bad scalars rejected" `Quick test_pbio_xml_bad_scalars;
    Alcotest.test_case "pbio-xml: escaping" `Quick test_pbio_xml_escaping;
    Alcotest.test_case "xml size blowup (Table 1 shape)" `Quick test_xml_size_blowup;
    Helpers.qtest prop_pbio_xml_roundtrip;
    Helpers.qtest prop_print_parse_roundtrip;
  ]
