(* Tests for the morphcheck subsystem: the evolution generator, the
   differential oracles, the fuzzer, and the hardened decode/morph error
   paths the fuzz targets rely on. *)

open Pbio
module O = Morphcheck.Oracle
module Evolve = Morphcheck.Evolve
module Fuzz = Morphcheck.Fuzz

let st seed = Random.State.make [| seed |]

(* --- oracle campaigns ------------------------------------------------------- *)

(* Every oracle passes a small fixed-seed campaign.  The CLI runs the same
   campaigns at larger counts; this keeps `dune runtest` self-contained. *)
let test_all_oracles_pass () =
  List.iter
    (fun r ->
       if not (O.passed r) then Alcotest.failf "%a" O.pp_report r)
    (O.run ~seed:7 ~count:60 ())

let test_campaigns_deterministic () =
  let a = O.run ~seed:3 ~count:30 () in
  let b = O.run ~seed:3 ~count:30 () in
  Alcotest.(check bool) "same seed, same reports" true (a = b)

let test_oracle_selection () =
  (match O.run ~names:[ "roundtrip" ] ~seed:1 ~count:5 () with
   | [ r ] -> Alcotest.(check string) "name" "roundtrip" r.O.oracle
   | rs -> Alcotest.failf "expected one report, got %d" (List.length rs));
  Alcotest.(check int) "six fuzz targets" 6 (List.length O.fuzz_names);
  try
    ignore (O.run ~names:[ "nope" ] ~seed:1 ~count:1 ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* --- the evolution generator ------------------------------------------------ *)

let test_evolve_formats_validate () =
  for i = 0 to 49 do
    let s = st (1000 + i) in
    let base = Morphcheck.Gen.record s in
    let c = Evolve.chain base s in
    List.iter
      (fun r -> Helpers.check_valid (Ptype.validate r))
      (Evolve.formats c)
  done

let test_evolve_specs_compile () =
  for i = 0 to 49 do
    let s = st (2000 + i) in
    let base = Morphcheck.Gen.record s in
    let c = Evolve.chain base s in
    List.iter
      (fun (step : Evolve.step) ->
         match Ecode.compile_xform ~src:step.after ~dst:step.before step.code with
         | Ok _ -> ()
         | Error e ->
           Alcotest.failf "rollback for %a does not compile: %s@.%s" Evolve.pp_op
             step.op e step.code)
      c.Evolve.steps
  done

let test_evolve_formats_distinct () =
  for i = 0 to 49 do
    let s = st (3000 + i) in
    let base = Morphcheck.Gen.record s in
    let c = Evolve.chain base s in
    let fmts = Array.of_list (Evolve.formats c) in
    Array.iteri
      (fun j f1 ->
         Array.iteri
           (fun k f2 ->
              if j < k && Ptype.equal_record f1 f2 then
                Alcotest.failf "chain formats %d and %d are equal: %s" j k
                  (Ptype.record_to_string f1))
           fmts)
      fmts
  done

(* --- the fuzzer ------------------------------------------------------------- *)

let test_fuzz_total () =
  (* mutate is total, including on empty input *)
  let s = st 99 in
  for _ = 1 to 200 do
    ignore (Fuzz.mutate "" s);
    ignore (Fuzz.mutate "x" s);
    ignore (Fuzz.mutate (String.make 64 '\x00') s)
  done

(* --- hardened decode paths --------------------------------------------------- *)

let le32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.to_string b

let lp s = le32 (String.length s) ^ s

let expect_meta_error needle data =
  match Meta.decode data with
  | Ok _ -> Alcotest.failf "meta decode accepted hostile input (wanted %S)" needle
  | Error e ->
    let e = Pbio.Err.to_string e in
    if not (Helpers.contains e needle) then
      Alcotest.failf "meta error %S does not mention %S" e needle

let test_meta_hostile_counts () =
  (* record "R" with one field "x", no default, enum type with -1 cases *)
  expect_meta_error "negative enum case count"
    ("PBIM" ^ lp "R" ^ le32 1 ^ lp "x" ^ "_" ^ "e" ^ lp "E" ^ le32 (-1));
  (* same field shape, fixed array of -1 elements *)
  expect_meta_error "negative fixed array size"
    ("PBIM" ^ lp "R" ^ le32 1 ^ lp "x" ^ "_" ^ "A" ^ le32 (-1) ^ "i");
  expect_meta_error "negative field count" ("PBIM" ^ lp "R" ^ le32 (-1));
  expect_meta_error "negative transformation count"
    ("PBIM" ^ lp "R" ^ le32 0 ^ le32 (-1))

let ping_fmt = Ptype_dsl.format_of_string_exn "format Ping { int seq; string tag; }"
let ping = Value.record [ ("seq", Value.Int 5); ("tag", Value.String "hello") ]

let test_wire_truncation_errors () =
  let msg = Wire.encode ~format_id:2 ping_fmt ping in
  List.iter
    (fun n ->
       match Wire.decode ping_fmt (String.sub msg 0 n) with
       | Ok _ -> Alcotest.failf "decode accepted %d-byte truncation" n
       | Error _ -> ())
    [ 0; 3; 10; 16; String.length msg - 1 ];
  match Wire.decode ping_fmt msg with
  | Ok v -> Alcotest.check Helpers.value "full message intact" ping v
  | Error e -> Alcotest.failf "full message rejected: %s" (Pbio.Err.to_string e)

let test_wire_hostile_format () =
  (* a format description arriving over the network can itself be hostile:
     a negative fixed size must not reach Array.init *)
  let hostile =
    { Ptype.rname = "H";
      fields =
        [ { Ptype.fname = "a";
            ftype = Array { elem = Basic Int; size = Fixed (-1) };
            fdefault = None } ] }
  in
  (match Wire.decode_payload hostile (String.make 32 '\x00') with
   | Ok _ -> Alcotest.fail "decoded under a negative fixed-size array"
   | Error _ -> ());
  (* huge claimed length field: error, not allocation *)
  let claims_many =
    { Ptype.rname = "L";
      fields =
        [ { Ptype.fname = "n"; ftype = Ptype.int_; fdefault = None };
          { Ptype.fname = "a";
            ftype = Array { elem = Basic Int; size = Length_field "n" };
            fdefault = None } ] }
  in
  let payload = le32 0x7fffffff in
  match Wire.decode_payload claims_many payload with
  | Ok _ -> Alcotest.fail "decoded an array longer than the message"
  | Error _ -> ()

(* --- hardened receiver ------------------------------------------------------- *)

let test_receiver_rejects_failing_transform () =
  let src = Ptype_dsl.format_of_string_exn "format Src { int a; }" in
  let dst = Ptype_dsl.format_of_string_exn "format Dst { int b; }" in
  let meta =
    { Meta.body = src;
      xforms = [ { Meta.source = None; target = dst; code = "old.b = new.a / 0;\n" } ] }
  in
  let recv = Morph.Receiver.create () in
  Morph.Receiver.register recv dst (fun _ -> Alcotest.fail "handler must not run");
  (match Morph.Receiver.deliver recv meta (Value.record [ ("a", Value.Int 1) ]) with
   | Morph.Receiver.Rejected reason ->
     Alcotest.(check bool) "reason names the transform" true
       (Helpers.contains reason "transformation failed")
   | o -> Alcotest.failf "expected Rejected, got %a" Morph.Receiver.pp_outcome o);
  Alcotest.(check int) "counted as rejected" 1 (Morph.Receiver.stats recv).Morph.Receiver.rejected

let test_receiver_rejects_garbage_wire () =
  let recv = Morph.Receiver.create () in
  let got = ref 0 in
  Morph.Receiver.register recv ping_fmt (fun _ -> incr got);
  (match Morph.Receiver.deliver_wire recv (Meta.plain ping_fmt) "not a wire message" with
   | Morph.Receiver.Rejected reason ->
     Alcotest.(check bool) "reason names the decode" true
       (Helpers.contains reason "decode")
   | o -> Alcotest.failf "expected Rejected, got %a" Morph.Receiver.pp_outcome o);
  Alcotest.(check int) "handler did not run on garbage" 0 !got;
  (* and a healthy message still goes through afterwards *)
  (match
     Morph.Receiver.deliver_wire recv (Meta.plain ping_fmt)
       (Wire.encode ~format_id:1 ping_fmt ping)
   with
   | Morph.Receiver.Rejected r -> Alcotest.failf "healthy message rejected: %s" r
   | _ -> ());
  Alcotest.(check int) "handler ran on the healthy message" 1 !got

let suite =
  [
    Alcotest.test_case "all oracles pass a small campaign" `Quick test_all_oracles_pass;
    Alcotest.test_case "campaigns are deterministic" `Quick test_campaigns_deterministic;
    Alcotest.test_case "oracle selection by name" `Quick test_oracle_selection;
    Alcotest.test_case "evolve: generated formats validate" `Quick
      test_evolve_formats_validate;
    Alcotest.test_case "evolve: rollback specs compile" `Quick test_evolve_specs_compile;
    Alcotest.test_case "evolve: chain formats pairwise distinct" `Quick
      test_evolve_formats_distinct;
    Alcotest.test_case "fuzz: mutate is total" `Quick test_fuzz_total;
    Alcotest.test_case "meta: hostile counts rejected" `Quick test_meta_hostile_counts;
    Alcotest.test_case "wire: truncations are errors" `Quick test_wire_truncation_errors;
    Alcotest.test_case "wire: hostile format descriptions" `Quick test_wire_hostile_format;
    Alcotest.test_case "receiver: failing transform is Rejected" `Quick
      test_receiver_rejects_failing_transform;
    Alcotest.test_case "receiver: garbage wire is Rejected" `Quick
      test_receiver_rejects_garbage_wire;
  ]
