(* Tests for out-of-band meta-data serialisation and format registries. *)

open Pbio

let meta_t : Meta.format_meta Alcotest.testable =
  Alcotest.testable
    (fun ppf m -> Ptype.pp_record ppf m.Meta.body)
    Meta.equal

let test_meta_roundtrip_plain () =
  let m = Meta.plain Helpers.response_v1 in
  let m' = Helpers.check_ok_err (Meta.decode (Meta.encode m)) in
  Alcotest.check meta_t "plain roundtrip" m m'

let test_meta_roundtrip_with_xforms () =
  let m = Helpers.response_v2_meta in
  let m' = Helpers.check_ok_err (Meta.decode (Meta.encode m)) in
  Alcotest.check meta_t "with transformations" m m';
  Alcotest.(check int) "one transformation" 1 (List.length m'.Meta.xforms);
  let x = List.hd m'.Meta.xforms in
  Alcotest.check Helpers.record_t "target survives" Helpers.response_v1 x.Meta.target;
  Alcotest.(check string) "code survives" Helpers.fig5_code x.Meta.code

let test_meta_roundtrip_defaults_and_enums () =
  let fmt =
    Ptype_dsl.format_of_string_exn
      {|
        enum mode { optional, required = 7 }
        format F {
          int a = -3;
          float b = 1.5;
          string s = "x\ny";
          bool t = true;
          char c = 'q';
          mode m = required;
          int n;
          float xs[n];
        }
      |}
  in
  let m = Meta.plain fmt in
  let m' = Helpers.check_ok_err (Meta.decode (Meta.encode m)) in
  Alcotest.check meta_t "defaults survive" m m'

let test_meta_decode_errors () =
  let expect_err s =
    match Meta.decode s with
    | Ok _ -> Alcotest.failf "expected decode failure"
    | Error _ -> ()
  in
  expect_err "";
  expect_err "XXXX";
  expect_err "PBIM";
  let good = Meta.encode (Meta.plain Helpers.contact) in
  expect_err (String.sub good 0 (String.length good - 2));
  expect_err (good ^ "junk")

(* A meta carries at most [Meta.max_xforms] transformations: receivers
   and the gateway plan over all of them before any match. *)
let test_meta_xform_cap () =
  let hop i =
    { Meta.source = None;
      target = Ptype_dsl.format_of_string_exn (Fmt.str "format T%d { int x; }" i);
      code = "old.x = new.x;" }
  in
  let meta n = { Meta.body = Helpers.contact; xforms = List.init n hop } in
  Alcotest.(check int) "the cap" 64 Meta.max_xforms;
  let m64 = Helpers.check_ok_err (Meta.decode (Meta.encode (meta 64))) in
  Alcotest.(check int) "64 decode" 64 (List.length m64.Meta.xforms);
  (match Meta.decode (Meta.encode (meta 65)) with
   | Error (`Meta msg) when Helpers.contains msg "65" -> ()
   | Error e -> Alcotest.failf "65: expected a meta error naming the count, got %s" (Err.to_string e)
   | Ok _ -> Alcotest.fail "65 transformations decoded");
  ignore (Morph.meta Helpers.contact ~xforms:(meta 64).Meta.xforms : Meta.format_meta);
  match Morph.meta Helpers.contact ~xforms:(meta 65).Meta.xforms with
  | _ -> Alcotest.fail "Morph.meta built 65 transformations"
  | exception Invalid_argument _ -> ()

(* An encoded meta takes at most [Meta.max_bytes]: longer input is
   refused before it is read, naming the limit. *)
let test_meta_size_cap () =
  Alcotest.(check int) "the cap" 65_536 Meta.max_bytes;
  let at = Meta.encode (Helpers.meta_of_size Meta.max_bytes) in
  Alcotest.(check int) "fixture size" Meta.max_bytes (String.length at);
  ignore (Helpers.check_ok_err (Meta.decode at) : Meta.format_meta);
  match Meta.decode (Meta.encode (Helpers.meta_of_size (Meta.max_bytes + 1))) with
  | Error (`Meta msg) when Helpers.contains msg "65536" -> ()
  | Error e -> Alcotest.failf "expected a meta error naming the limit, got %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "a meta over the cap decoded"

let test_meta_equal_and_hash () =
  let m1 = Helpers.response_v2_meta in
  let m2 =
    { Meta.body = Helpers.response_v2;
      xforms = [ { Meta.source = None; target = Helpers.response_v1; code = Helpers.fig5_code } ] }
  in
  Alcotest.(check bool) "equal" true (Meta.equal m1 m2);
  Alcotest.(check int) "hash" (Meta.hash m1) (Meta.hash m2);
  let m3 = { m2 with Meta.xforms = [] } in
  Alcotest.(check bool) "xforms part of identity" false (Meta.equal m1 m3)

(* Every component of every hop counts in the hash, however long the
   chain: a meta's hash is also the gateway's routing fingerprint. *)
let test_meta_hash_covers_every_hop () =
  let r k = Ptype_dsl.format_of_string_exn (Fmt.str "format R%d { int a%d; }" k k) in
  let hops = 6 in
  let base =
    { Meta.body = r hops;
      xforms =
        List.init hops (fun i ->
            let k = hops - i in
            { Meta.source = (if i = 0 then None else Some (r k));
              target = r (k - 1);
              code = Fmt.str "old.a%d = new.a%d;" (k - 1) k }) }
  in
  let differs what m =
    Alcotest.(check bool) (what ^ ": not equal") false (Meta.equal base m);
    Alcotest.(check bool) (what ^ ": hash differs") true (Meta.hash base <> Meta.hash m)
  in
  for i = 0 to hops - 1 do
    let edit f =
      { base with Meta.xforms = List.mapi (fun j x -> if j = i then f x else x) base.Meta.xforms }
    in
    let hop = Fmt.str "hop %d" (i + 1) in
    differs (hop ^ " source") (edit (fun x -> { x with Meta.source = Some (r 99) }));
    differs (hop ^ " target") (edit (fun x -> { x with Meta.target = r 98 }));
    differs (hop ^ " code") (edit (fun x -> { x with Meta.code = x.Meta.code ^ " " }))
  done;
  differs "body" { base with Meta.body = r 97 };
  differs "one hop fewer" { base with Meta.xforms = List.tl base.Meta.xforms }

(* --- registry ------------------------------------------------------------------ *)

let test_registry_dedup () =
  let reg = Registry.create () in
  let f1 = Registry.register reg (Meta.plain Helpers.response_v2) in
  let f2 = Registry.register reg (Meta.plain Helpers.response_v2) in
  Alcotest.(check int) "same id" f1.Registry.id f2.Registry.id;
  Alcotest.(check int) "one entry" 1 (Registry.size reg);
  let f3 = Registry.register reg (Meta.plain Helpers.response_v1) in
  Alcotest.(check bool) "new id" true (f3.Registry.id <> f1.Registry.id);
  (* same body, different transformations: distinct registration *)
  let f4 = Registry.register reg Helpers.response_v2_meta in
  Alcotest.(check bool) "xforms distinguish" true (f4.Registry.id <> f1.Registry.id)

let test_registry_find () =
  let reg = Registry.create () in
  let f = Registry.register reg (Meta.plain Helpers.response_v2) in
  (match Registry.find reg f.Registry.id with
   | Some f' -> Alcotest.(check int) "find by id" f.Registry.id f'.Registry.id
   | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "missing id" true (Registry.find reg 999 = None);
  ignore (Registry.register reg (Meta.plain Helpers.response_v1));
  Alcotest.(check int) "find_by_name" 2
    (List.length (Registry.find_by_name reg "ChannelOpenResponse"));
  Alcotest.(check int) "find_by_name none" 0
    (List.length (Registry.find_by_name reg "Nope"))

(* --- properties ------------------------------------------------------------------ *)

let prop_meta_roundtrip =
  QCheck.Test.make ~name:"meta roundtrip for random formats" ~count:300
    Helpers.arb_format (fun r ->
        let m = Meta.plain r in
        match Meta.decode (Meta.encode m) with
        | Ok m' -> Meta.equal m m'
        | Error _ -> false)

let prop_meta_hash_consistent =
  QCheck.Test.make ~name:"meta hash consistent with equality" ~count:200
    Helpers.arb_format (fun r ->
        let m = Meta.plain r in
        let m' = Helpers.check_ok_err (Meta.decode (Meta.encode m)) in
        Meta.hash m = Meta.hash m')

let suite =
  [
    Alcotest.test_case "meta: plain roundtrip" `Quick test_meta_roundtrip_plain;
    Alcotest.test_case "meta: transformations roundtrip" `Quick test_meta_roundtrip_with_xforms;
    Alcotest.test_case "meta: defaults and enums" `Quick test_meta_roundtrip_defaults_and_enums;
    Alcotest.test_case "meta: decode errors" `Quick test_meta_decode_errors;
    Alcotest.test_case "meta: at most 64 transformations" `Quick test_meta_xform_cap;
    Alcotest.test_case "meta: at most 64 KiB" `Quick test_meta_size_cap;
    Alcotest.test_case "meta: equality and hash" `Quick test_meta_equal_and_hash;
    Alcotest.test_case "meta: hash covers every hop" `Quick test_meta_hash_covers_every_hop;
    Alcotest.test_case "registry: structural dedup" `Quick test_registry_dedup;
    Alcotest.test_case "registry: find" `Quick test_registry_find;
    Helpers.qtest prop_meta_roundtrip;
    Helpers.qtest prop_meta_hash_consistent;
  ]
