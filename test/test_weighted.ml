(* Tests for importance-weighted matching (the paper's future-work
   extension: weight fields and sub-fields by importance). *)

open Pbio
module Weighted = Morph.Weighted
module Diff = Morph.Diff

let fmt = Ptype_dsl.format_of_string_exn

let test_uniform_recovers_algorithm1 () =
  (* with the uniform weighting, weighted quantities equal Algorithm 1 *)
  let pairs =
    [
      (Helpers.response_v2, Helpers.response_v1);
      (Helpers.response_v1, Helpers.response_v2);
      (fmt "format F { int x; }", fmt "format F { float x; }");
    ]
  in
  List.iter
    (fun (a, b) ->
       Alcotest.(check (float 1e-9)) "diff"
         (float_of_int (Diff.diff a b))
         (Weighted.diff Weighted.uniform a b);
       Alcotest.(check (float 1e-9)) "weight"
         (float_of_int (Ptype.weight a))
         (Weighted.weight Weighted.uniform a);
       Alcotest.(check (float 1e-9)) "ratio" (Diff.mismatch_ratio a b)
         (Weighted.mismatch_ratio Weighted.uniform a b))
    pairs

let test_zero_weight_ignores_field () =
  let a = fmt "format F { int x; int debug_hint; }" in
  let b = fmt "format F { int x; }" in
  Alcotest.(check (float 1e-9)) "unweighted diff" 1.0
    (Weighted.diff Weighted.uniform a b);
  let w = Weighted.make [ ("debug_hint", 0.0) ] in
  Alcotest.(check (float 1e-9)) "irrelevant field ignored" 0.0 (Weighted.diff w a b)

let test_heavy_field_dominates () =
  let a = fmt "format F { int key; int detail; }" in
  let b = fmt "format F { int key; }" in
  let c = fmt "format F { int detail; }" in
  (* plain diff ties: each target misses one field of [a] *)
  Alcotest.(check int) "plain diff ties" (Diff.diff a b) (Diff.diff a c);
  let w = Weighted.make [ ("key", 10.0) ] in
  Alcotest.(check bool) "losing the key costs more" true
    (Weighted.diff w a c > Weighted.diff w a b)

let test_nested_paths () =
  let a = fmt "record In { int id; int extra; } format F { In inner; }" in
  let b = fmt "record In { int id; } format F { In inner; }" in
  let w = Weighted.make [ ("inner.extra", 0.25) ] in
  Alcotest.(check (float 1e-9)) "nested override" 0.25 (Weighted.diff w a b);
  (* missing whole complex field charges its weighted mass *)
  let c = fmt "format F { int unrelated; }" in
  Alcotest.(check (float 1e-9)) "weighted mass of missing record" 1.25
    (Weighted.diff w a c)

let test_array_element_paths () =
  let a = fmt "record E { int keep; int drop; } format F { int n; E xs[n]; }" in
  let b = fmt "record E { int keep; } format F { int n; E xs[n]; }" in
  let w = Weighted.make [ ("xs.drop", 3.0) ] in
  Alcotest.(check (float 1e-9)) "array element path" 3.0 (Weighted.diff w a b)

let test_weighted_maxmatch_changes_winner () =
  (* incoming format [a]; two candidates miss different fields *)
  let a = fmt "format F { int key; int detail; int note; }" in
  let misses_detail = fmt "format F { int key; int note; }" in
  let misses_key = fmt "format F { int detail; int note; }" in
  (* uniform: tie on ratio and diff; first candidate order wins *)
  let pick weights =
    match
      Weighted.max_match ~weights [ a ] [ misses_key; misses_detail ]
    with
    | Some m -> m.Weighted.f2
    | None -> Alcotest.fail "expected a match"
  in
  let key_heavy = Weighted.make [ ("key", 100.0) ] in
  Alcotest.check Helpers.record_t "key-heavy weighting avoids losing the key"
    misses_detail (pick key_heavy);
  let detail_heavy = Weighted.make [ ("detail", 100.0) ] in
  Alcotest.check Helpers.record_t "detail-heavy weighting flips the choice"
    misses_key (pick detail_heavy)

let test_weighted_thresholds () =
  let a = fmt "format F { int x; int y; }" in
  let b = fmt "format F { int x; }" in
  let w = Weighted.make [ ("y", 5.0) ] in
  let tight = { Weighted.diff_threshold = 4.0; mismatch_threshold = 1.0 } in
  Alcotest.(check bool) "heavy missing field breaches threshold" true
    (Weighted.max_match ~weights:w ~thresholds:tight [ a ] [ b ] = None);
  let loose = { Weighted.diff_threshold = 5.0; mismatch_threshold = 1.0 } in
  Alcotest.(check bool) "loose threshold accepts" true
    (Weighted.max_match ~weights:w ~thresholds:loose [ a ] [ b ] <> None)

(* A weighting at work for a deployment that accepts only perfect
   matches: declaring the sender's extra field irrelevant admits the
   near-miss that plain MaxMatch, and the uniform weighting, turn away. *)
let test_zero_weight_admits_strict_near_miss () =
  let incoming = fmt "format T { int key; int debug_hint; }" in
  let registered = fmt "format T { int key; }" in
  Alcotest.(check bool) "plain strict MaxMatch rejects" true
    (Morph.Maxmatch.max_match ~thresholds:Morph.Maxmatch.strict_thresholds [ incoming ]
       [ registered ]
     = None);
  let strict = { Weighted.diff_threshold = 0.0; mismatch_threshold = 0.0 } in
  Alcotest.(check bool) "uniform weighted strict rejects" true
    (Weighted.max_match ~thresholds:strict [ incoming ] [ registered ] = None);
  match
    Weighted.max_match
      ~weights:(Weighted.make [ ("debug_hint", 0.0) ])
      ~thresholds:strict [ incoming ] [ registered ]
  with
  | Some m ->
    Alcotest.check Helpers.record_t "matched the registered format" registered
      m.Weighted.f2;
    Alcotest.(check (float 1e-9)) "the ignored field costs nothing" 0.0 m.Weighted.diff12
  | None -> Alcotest.fail "expected the zero weight to admit the near-miss"

let test_invalid_weights_rejected () =
  (try
     ignore (Weighted.make [ ("x", -1.0) ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (try
     ignore (Weighted.make ~default_weight:(-0.5) []);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let prop_uniform_equals_plain =
  QCheck.Test.make ~name:"uniform weighting = Algorithm 1 on random formats" ~count:200
    QCheck.(pair Helpers.arb_format Helpers.arb_format)
    (fun (a, b) ->
       Float.abs
         (Weighted.diff Weighted.uniform a b -. float_of_int (Diff.diff a b))
       < 1e-9)

let prop_weighted_diff_bounded =
  QCheck.Test.make ~name:"0 <= weighted diff <= weighted weight" ~count:200
    QCheck.(pair Helpers.arb_format Helpers.arb_format)
    (fun (a, b) ->
       let w = Weighted.make ~default_weight:0.7 [ ("f0", 2.0); ("f1.f0", 3.0) ] in
       let d = Weighted.diff w a b in
       d >= 0.0 && d <= Weighted.weight w a +. 1e-9)

let suite =
  [
    Alcotest.test_case "uniform weighting recovers Algorithm 1" `Quick
      test_uniform_recovers_algorithm1;
    Alcotest.test_case "zero weight ignores a field" `Quick test_zero_weight_ignores_field;
    Alcotest.test_case "heavy field dominates" `Quick test_heavy_field_dominates;
    Alcotest.test_case "nested field paths" `Quick test_nested_paths;
    Alcotest.test_case "array element paths" `Quick test_array_element_paths;
    Alcotest.test_case "weighted MaxMatch changes the winner" `Quick
      test_weighted_maxmatch_changes_winner;
    Alcotest.test_case "weighted thresholds" `Quick test_weighted_thresholds;
    Alcotest.test_case "zero weight admits a strict near-miss" `Quick
      test_zero_weight_admits_strict_near_miss;
    Alcotest.test_case "invalid weights rejected" `Quick test_invalid_weights_rejected;
    Helpers.qtest prop_uniform_equals_plain;
    Helpers.qtest prop_weighted_diff_bounded;
  ]
