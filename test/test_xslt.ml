(* Tests for the XPath subset and the XSLT engine. *)

module Xml = Xmlkit.Xml
module Xml_parser = Xmlkit.Xml_parser
module Xml_print = Xmlkit.Xml_print
module Xpath = Xslt.Xpath
module Stylesheet = Xslt.Stylesheet
module Engine = Xslt.Engine

let doc =
  Helpers.check_ok
    (Xml_parser.parse
       {|<shop>
           <item kind="book"><name>ocaml</name><price>30</price></item>
           <item kind="cd"><name>jazz</name><price>10</price></item>
           <item kind="book"><name>tapl</name><price>60</price></item>
           <note>hi</note>
         </shop>|})

let ctx =
  { Xpath.item = Xpath.Node (doc, []); position = 1; size = 1; root = doc; vars = [] }

let select src = Xpath.select ctx (Xpath.path_of_string src)
let eval_s src = Xpath.eval_string ctx (Xpath.expr_of_string src)
let eval_b src = Xpath.eval_bool ctx (Xpath.expr_of_string src)
let eval_n src = Xpath.eval_number ctx (Xpath.expr_of_string src)

let test_xpath_paths () =
  Alcotest.(check int) "children" 3 (List.length (select "item"));
  Alcotest.(check int) "nested" 3 (List.length (select "item/name"));
  Alcotest.(check int) "wildcard" 4 (List.length (select "*"));
  Alcotest.(check int) "absolute" 3 (List.length (select "/shop/item"));
  Alcotest.(check int) "descendants" 3 (List.length (select "//name"));
  Alcotest.(check int) "text()" 1 (List.length (select "note/text()"));
  Alcotest.(check int) "self" 1 (List.length (select "."));
  Alcotest.(check int) "no match" 0 (List.length (select "zzz"))

let test_xpath_attributes () =
  Alcotest.(check int) "attr nodes" 3 (List.length (select "item/@kind"));
  Alcotest.(check string) "attr value" "book" (eval_s "item/@kind")

let test_xpath_predicates () =
  Alcotest.(check int) "value predicate" 2 (List.length (select "item[@kind='book']"));
  Alcotest.(check int) "path predicate" 3 (List.length (select "item[name]"));
  Alcotest.(check int) "position" 1 (List.length (select "item[2]"));
  Alcotest.(check string) "second item" "jazz" (eval_s "item[2]/name");
  Alcotest.(check int) "numeric compare" 1 (List.length (select "item[price > 30]"));
  Alcotest.(check int) "position()" 2 (List.length (select "item[position() < 3]"));
  Alcotest.(check int) "last()" 1 (List.length (select "item[position() = last()]"))

let test_xpath_functions () =
  Alcotest.(check (float 1e-9)) "count" 3.0 (eval_n "count(item)");
  Alcotest.(check string) "concat" "a-b" (eval_s "concat('a', '-', 'b')");
  Alcotest.(check bool) "not" true (eval_b "not(zzz)");
  Alcotest.(check bool) "boolean ops" true (eval_b "item and not(missing) or false()");
  Alcotest.(check string) "name()" "shop" (eval_s "name()")

let test_xpath_arithmetic () =
  Alcotest.(check (float 1e-9)) "mul" 300.0 (eval_n "count(item) * 100");
  Alcotest.(check (float 1e-9)) "precedence" 7.0 (eval_n "1 + 2 * 3");
  Alcotest.(check (float 1e-9)) "div" 2.5 (eval_n "5 div 2");
  Alcotest.(check (float 1e-9)) "mod" 1.0 (eval_n "7 mod 2");
  Alcotest.(check (float 1e-9)) "unary minus" (-4.0) (eval_n "-4");
  Alcotest.(check string) "round" "3" (eval_s "round(2.6)");
  Alcotest.(check (float 1e-9)) "path arithmetic" 40.0 (eval_n "item/price + 10")

let test_xpath_comparisons_on_nodesets () =
  (* nodeset comparison: true if any node satisfies *)
  Alcotest.(check bool) "exists equal" true (eval_b "item/@kind = 'cd'");
  Alcotest.(check bool) "none equal" false (eval_b "item/@kind = 'dvd'");
  Alcotest.(check bool) "numeric over nodes" true (eval_b "item/price > 50")

let test_xpath_parse_errors () =
  let expect_err s =
    try
      ignore (Xpath.path_of_string s);
      Alcotest.failf "expected parse error for %S" s
    with Xpath.Parse_error _ -> ()
  in
  expect_err "";
  expect_err "a[";
  expect_err "a]";
  expect_err "@";
  expect_err "a/";
  expect_err "f(x"

(* --- engine --------------------------------------------------------------------- *)

let apply sheet_src doc_src =
  let sheet = Stylesheet.of_string sheet_src in
  let doc = Helpers.check_ok (Xml_parser.parse doc_src) in
  Engine.apply_to_element sheet doc

let test_template_matching_and_priority () =
  (* a "/" template drives the whole run; name templates beat wildcards *)
  let out =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="/"><r><xsl:apply-templates/></r></xsl:template>
          <xsl:template match="b"><hit/></xsl:template>
          <xsl:template match="*"><star/></xsl:template>
        </xsl:stylesheet>|}
      "<a><b/><c/></a>"
  in
  (* context of "/" is the root element; apply-templates visits <a>'s
     children: <b> matches the name template, <c> the wildcard *)
  Alcotest.check Helpers.xml "root template + priorities"
    (Helpers.check_ok (Xml_parser.parse "<r><hit/><star/></r>"))
    out;
  let out2 =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="a"><r><xsl:apply-templates/></r></xsl:template>
          <xsl:template match="b"><hit/></xsl:template>
          <xsl:template match="*"><star/></xsl:template>
        </xsl:stylesheet>|}
      "<a><b/><c/></a>"
  in
  Alcotest.check Helpers.xml "priorities"
    (Helpers.check_ok (Xml_parser.parse "<r><hit/><star/></r>"))
    out2

let test_path_patterns () =
  let out =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="a"><r><xsl:apply-templates select="b/c"/></r></xsl:template>
          <xsl:template match="b/c"><deep/></xsl:template>
        </xsl:stylesheet>|}
      "<a><b><c/></b></a>"
  in
  Alcotest.check Helpers.xml "suffix path pattern"
    (Helpers.check_ok (Xml_parser.parse "<r><deep/></r>"))
    out

let test_value_of_and_text () =
  let out =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="/p">
            <o><xsl:value-of select="x"/><xsl:text> / </xsl:text><xsl:value-of select="y"/></o>
          </xsl:template>
        </xsl:stylesheet>|}
      "<p><x>1</x><y>2</y></p>"
  in
  Alcotest.(check string) "text assembled" "1 / 2" (Xml.text_content out)

let test_for_each_and_position () =
  let out =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="/l">
            <o><xsl:for-each select="i"><n p="{position()}"><xsl:value-of select="."/></n></xsl:for-each></o>
          </xsl:template>
        </xsl:stylesheet>|}
      "<l><i>a</i><i>b</i></l>"
  in
  Alcotest.check Helpers.xml "for-each with AVT"
    (Helpers.check_ok (Xml_parser.parse {|<o><n p="1">a</n><n p="2">b</n></o>|}))
    out

let test_if_choose () =
  let out =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="/l">
            <o>
              <xsl:if test="i > 2"><big/></xsl:if>
              <xsl:if test="i > 99"><huge/></xsl:if>
              <xsl:choose>
                <xsl:when test="i = 1"><one/></xsl:when>
                <xsl:when test="i = 3"><three/></xsl:when>
                <xsl:otherwise><other/></xsl:otherwise>
              </xsl:choose>
            </o>
          </xsl:template>
        </xsl:stylesheet>|}
      "<l><i>3</i></l>"
  in
  Alcotest.check Helpers.xml "conditionals"
    (Helpers.check_ok (Xml_parser.parse "<o><big/><three/></o>"))
    out

let attr_of node name =
  match node with Xml.Element e -> Xml.attr e name | Xml.Text _ -> None

let test_empty_nodesets () =
  (* value-of, for-each and count over selections that match nothing *)
  let out =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="/l">
            <o c="{count(zzz)}">
              <xsl:value-of select="zzz"/>
              <xsl:for-each select="zzz"><never/></xsl:for-each>
              <xsl:if test="zzz"><nope/></xsl:if>
              <xsl:apply-templates select="zzz"/>
            </o>
          </xsl:template>
        </xsl:stylesheet>|}
      "<l><i>1</i></l>"
  in
  Alcotest.(check string) "no text from empty value-of" "" (Xml.text_content out);
  Alcotest.(check int) "no elements materialised" 0 (List.length (Xml.child_elements out));
  Alcotest.(check (option string)) "count is 0" (Some "0") (attr_of out "c")

let test_missing_attributes () =
  (* absent attributes read as empty strings in AVTs and value-of, and as
     empty node-sets in tests *)
  let out =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="/d">
            <o a="{@missing}" b="{item/@ghost}">
              <xsl:if test="not(@missing)"><none/></xsl:if>
              <xsl:value-of select="item/@ghost"/>
            </o>
          </xsl:template>
        </xsl:stylesheet>|}
      "<d><item present='x'/></d>"
  in
  Alcotest.(check (option string)) "AVT of missing attr" (Some "") (attr_of out "a");
  Alcotest.(check (option string)) "AVT of missing nested attr" (Some "") (attr_of out "b");
  Alcotest.(check string) "value-of is empty" "" (Xml.text_content out);
  (match Xml.child_elements out with
   | [ e ] -> Alcotest.(check string) "not(@missing) fired" "none" e.Xml.tag
   | es -> Alcotest.failf "expected exactly <none/>, got %d elements" (List.length es))

let test_nested_choose () =
  let sheet =
    {|<xsl:stylesheet>
        <xsl:template match="/n">
          <o>
            <xsl:choose>
              <xsl:when test="a">
                <xsl:choose>
                  <xsl:when test="a = 1"><one/></xsl:when>
                  <xsl:otherwise>
                    <xsl:choose>
                      <xsl:when test="a = 2"><two/></xsl:when>
                      <xsl:otherwise><many/></xsl:otherwise>
                    </xsl:choose>
                  </xsl:otherwise>
                </xsl:choose>
              </xsl:when>
              <xsl:otherwise><empty/></xsl:otherwise>
            </xsl:choose>
          </o>
        </xsl:template>
      </xsl:stylesheet>|}
  in
  let expect doc want =
    Alcotest.check Helpers.xml doc
      (Helpers.check_ok (Xml_parser.parse want))
      (apply sheet doc)
  in
  expect "<n><a>1</a></n>" "<o><one/></o>";
  expect "<n><a>2</a></n>" "<o><two/></o>";
  expect "<n><a>9</a></n>" "<o><many/></o>";
  expect "<n/>" "<o><empty/></o>"

let test_copy_of_element_attribute () =
  let out =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="/d">
            <xsl:element name="made">
              <xsl:attribute name="a"><xsl:value-of select="k"/></xsl:attribute>
              <xsl:copy-of select="sub"/>
            </xsl:element>
          </xsl:template>
        </xsl:stylesheet>|}
      "<d><k>7</k><sub><deep>x</deep></sub></d>"
  in
  Alcotest.check Helpers.xml "element/attribute/copy-of"
    (Helpers.check_ok (Xml_parser.parse {|<made a="7"><sub><deep>x</deep></sub></made>|}))
    out

let test_variables () =
  let out =
    apply
      {|<xsl:stylesheet>
          <xsl:template match="/o">
            <r>
              <xsl:variable name="total" select="a + b"/>
              <xsl:variable name="label">sum</xsl:variable>
              <v k="{$label}"><xsl:value-of select="$total"/></v>
              <xsl:if test="$total > 10"><big/></xsl:if>
              <xsl:for-each select="a">
                <inner><xsl:value-of select="$label"/></inner>
              </xsl:for-each>
            </r>
          </xsl:template>
        </xsl:stylesheet>|}
      "<o><a>7</a><b>5</b></o>"
  in
  Alcotest.check Helpers.xml "variables in select, AVT and nested scopes"
    (Helpers.check_ok (Xml_parser.parse {|<r><v k="sum">12</v><big/><inner>sum</inner></r>|}))
    out;
  (* unbound variables are errors *)
  (try
     ignore
       (apply
          {|<xsl:stylesheet><xsl:template match="/"><x><xsl:value-of select="$nope"/></x></xsl:template></xsl:stylesheet>|}
          "<a/>");
     Alcotest.fail "expected unbound-variable error"
   with Xpath.Parse_error _ -> ())

let test_builtin_rules () =
  (* with no matching templates, built-ins recurse and copy text through *)
  let sheet = Stylesheet.of_string "<xsl:stylesheet></xsl:stylesheet>" in
  let doc = Helpers.check_ok (Xml_parser.parse "<a>x<b>y</b>z</a>") in
  Alcotest.(check string) "text through" "xyz"
    (Xml.text_content (Engine.apply_to_element sheet doc))

(* Several result roots come back under one [<result>], in order, from one
   run of the stylesheet. *)
let test_several_roots_wrapped () =
  Alcotest.check Helpers.xml "both roots, in order"
    (Helpers.check_ok (Xml_parser.parse "<result><x n=\"1\"/><y>t</y></result>"))
    (apply
       {|<xsl:stylesheet><xsl:template match="/"><x n="1"/><y>t</y></xsl:template></xsl:stylesheet>|}
       "<a/>")

let test_unsupported_instruction_errors () =
  (try
     ignore
       (apply
          {|<xsl:stylesheet><xsl:template match="/"><xsl:unknown/></xsl:template></xsl:stylesheet>|}
          "<a/>");
     Alcotest.fail "expected Engine.Error"
   with Engine.Error _ -> ());
  (try
     ignore (Stylesheet.of_string "<notasheet/>");
     Alcotest.fail "expected Stylesheet.Error"
   with Stylesheet.Error _ -> ())

(* --- the paper's transformation: XSLT vs morphing agree ------------------------ *)

let test_fig5_stylesheet_matches_ecode_morphing () =
  let v2_val = Helpers.sample_v2 12 in
  (* morphing path *)
  let morphed =
    Helpers.check_ok_err
      (Morph.morph_to Helpers.response_v2_meta ~target:Helpers.response_v1 v2_val)
  in
  (* XML/XSLT path *)
  let sheet = Stylesheet.of_string Echo.Wire_formats.response_v2_to_v1_stylesheet in
  let xml_v2 = Xmlkit.Pbio_xml.to_xml Helpers.response_v2 v2_val in
  let xml_v1 = Engine.apply_to_element sheet xml_v2 in
  let via_xslt = Xmlkit.Pbio_xml.of_xml Helpers.response_v1 xml_v1 in
  Alcotest.check Helpers.value "the two technologies compute the same message"
    morphed via_xslt

let test_fig5_sheet_across_sizes () =
  (* the XSLT/Ecode agreement holds for empty, single and larger lists, and
     for mixed role flags *)
  let sheet = Stylesheet.of_string Echo.Wire_formats.response_v2_to_v1_stylesheet in
  List.iter
    (fun n ->
       let v2_val = Echo.Wire_formats.gen_response_v2 n in
       let morphed =
         Helpers.check_ok_err
           (Morph.morph_to Helpers.response_v2_meta ~target:Helpers.response_v1 v2_val)
       in
       let xml_v1 =
         Engine.apply_to_element sheet
           (Xmlkit.Pbio_xml.to_xml Helpers.response_v2 v2_val)
       in
       let via_xslt = Xmlkit.Pbio_xml.of_xml Helpers.response_v1 xml_v1 in
       Alcotest.check Helpers.value (Printf.sprintf "n = %d" n) morphed via_xslt)
    [ 0; 1; 2; 17; 64 ]

(* Property: on random well-formed v2.0 responses, the three conversion
   technologies — compiled Ecode, interpreted Ecode and XSLT — compute the
   same v1.0 message. *)
let prop_three_paths_agree =
  let sheet = lazy (Stylesheet.of_string Echo.Wire_formats.response_v2_to_v1_stylesheet) in
  let arb =
    QCheck.make
      ~print:(fun v -> Pbio.Value.to_string v)
      (Helpers.gen_value_for Helpers.response_v2)
  in
  QCheck.Test.make ~name:"Ecode (both engines) and XSLT agree on random messages"
    ~count:60 arb
    (fun v ->
       (* XML text cannot carry control characters; restrict the host
          strings the generator produced *)
       let printable s = String.for_all (fun c -> c >= ' ' && c <= '~') s in
       let rec clean (v : Pbio.Value.t) =
         match v with
         | Pbio.Value.String s -> printable s
         | Pbio.Value.Record es -> Array.for_all (fun e -> clean e.Pbio.Value.v) es
         | Pbio.Value.Array d ->
           let ok = ref true in
           for i = 0 to d.Pbio.Value.len - 1 do
             if not (clean d.Pbio.Value.items.(i)) then ok := false
           done;
           !ok
         | _ -> true
       in
       QCheck.assume (clean v);
       let compiled =
         Helpers.check_ok_err
           (Morph.morph_to Helpers.response_v2_meta ~target:Helpers.response_v1 v)
       in
       let interpreted =
         Helpers.check_ok_err
           (Morph.morph_to ~engine:Morph.Xform.Interpreted Helpers.response_v2_meta
              ~target:Helpers.response_v1 v)
       in
       let via_xslt =
         Xmlkit.Pbio_xml.of_xml Helpers.response_v1
           (Engine.apply_to_element (Lazy.force sheet)
              (Xmlkit.Pbio_xml.to_xml Helpers.response_v2 v))
       in
       Pbio.Value.equal compiled interpreted && Pbio.Value.equal compiled via_xslt)

let suite =
  [
    Alcotest.test_case "xpath: paths" `Quick test_xpath_paths;
    Alcotest.test_case "xpath: attributes" `Quick test_xpath_attributes;
    Alcotest.test_case "xpath: predicates" `Quick test_xpath_predicates;
    Alcotest.test_case "xpath: functions" `Quick test_xpath_functions;
    Alcotest.test_case "xpath: arithmetic" `Quick test_xpath_arithmetic;
    Alcotest.test_case "xpath: nodeset comparisons" `Quick test_xpath_comparisons_on_nodesets;
    Alcotest.test_case "xpath: parse errors" `Quick test_xpath_parse_errors;
    Alcotest.test_case "engine: matching and priority" `Quick test_template_matching_and_priority;
    Alcotest.test_case "engine: path patterns" `Quick test_path_patterns;
    Alcotest.test_case "engine: value-of and text" `Quick test_value_of_and_text;
    Alcotest.test_case "engine: for-each, position, AVT" `Quick test_for_each_and_position;
    Alcotest.test_case "engine: if and choose" `Quick test_if_choose;
    Alcotest.test_case "engine: empty node-sets" `Quick test_empty_nodesets;
    Alcotest.test_case "engine: missing attributes" `Quick test_missing_attributes;
    Alcotest.test_case "engine: nested choose" `Quick test_nested_choose;
    Alcotest.test_case "engine: element/attribute/copy-of" `Quick
      test_copy_of_element_attribute;
    Alcotest.test_case "engine: variables" `Quick test_variables;
    Alcotest.test_case "engine: built-in rules" `Quick test_builtin_rules;
    Alcotest.test_case "engine: several roots wrapped in order" `Quick
      test_several_roots_wrapped;
    Alcotest.test_case "engine: unsupported instructions" `Quick
      test_unsupported_instruction_errors;
    Alcotest.test_case "Figure 5: XSLT equals Ecode morphing" `Quick
      test_fig5_stylesheet_matches_ecode_morphing;
    Alcotest.test_case "Figure 5 agreement across sizes" `Quick
      test_fig5_sheet_across_sizes;
    Helpers.qtest prop_three_paths_agree;
  ]
