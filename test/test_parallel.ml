(* Tests for the multicore scale-out layer: the strided domain pool
   (Morph.Pool), the capability context (Pbio.Ctx), sharded fan-out
   (Echo.Fanout), and a smoke run of the parallel differential oracle. *)

open Pbio
module Pool = Morph.Pool

let fmt = Ptype_dsl.format_of_string_exn

(* --- Morph.Pool ----------------------------------------------------------- *)

let test_pool_width1_is_array_map () =
  Pool.with_pool ~domains:1 (fun p ->
      Alcotest.(check int) "width" 1 (Pool.width p);
      let xs = Array.init 17 Fun.id in
      Alcotest.(check (array int))
        "map = Array.map"
        (Array.map (fun x -> x * x) xs)
        (Pool.map p (fun x -> x * x) xs))

let test_pool_matches_sequential () =
  let f x = (x * 7919) mod 101 in
  List.iter
    (fun domains ->
       Pool.with_pool ~domains (fun p ->
           List.iter
             (fun n ->
                let xs = Array.init n Fun.id in
                Alcotest.(check (array int))
                  (Fmt.str "width %d over %d items" domains n)
                  (Array.map f xs) (Pool.map p f xs))
             [ 0; 1; 2; 5; 32 ]))
    [ 2; 3; 4 ]

let test_pool_stride_ownership () =
  (* worker [k] owns indices [i mod width = k] in increasing order, so a
     per-residue log is touched by one domain and must come out ordered *)
  let width = 3 and n = 10 in
  Pool.with_pool ~domains:width (fun p ->
      let order = Array.make width [] in
      let f i =
        let k = i mod width in
        order.(k) <- i :: order.(k);
        i
      in
      ignore (Pool.map p f (Array.init n Fun.id));
      for k = 0 to width - 1 do
        let expect = List.filter (fun i -> i mod width = k) (List.init n Fun.id) in
        Alcotest.(check (list int))
          (Fmt.str "stride %d processed in index order" k)
          expect
          (List.rev order.(k))
      done)

exception Boom of int

let test_pool_reraises_lowest_index () =
  Pool.with_pool ~domains:4 (fun p ->
      match
        Pool.map p
          (fun i -> if i >= 5 then raise (Boom i) else i)
          (Array.init 12 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom i -> Alcotest.(check int) "lowest failing index wins" 5 i)

let test_pool_shutdown () =
  (match Pool.create ~domains:0 with
   | _ -> Alcotest.fail "domains = 0 must be rejected"
   | exception Invalid_argument _ -> ());
  let p = Pool.create ~domains:2 in
  ignore (Pool.map p succ [| 1; 2; 3 |]);
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  match Pool.map p succ [| 1; 2 |] with
  | _ -> Alcotest.fail "map after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* --- Pbio.Ctx -------------------------------------------------------------- *)

let test_ctx_cache_isolation () =
  (* encoding through a fresh ctx must populate that ctx's plan cache and
     leave the process-default cache alone *)
  let r = fmt "format CtxIso { int x; string s; }" in
  let v = Value.record [ ("x", Value.Int 1); ("s", Value.String "a") ] in
  let ctx = Ctx.create () in
  let default_size () = Codec.plan_cache_size ~cache:(Ctx.codecs Ctx.default) in
  let default_before = default_size () in
  let msg = Wire.encode ~ctx ~format_id:1 r v in
  (match Wire.decode ~ctx r msg with
   | Ok v' -> Alcotest.check Helpers.value "ctx roundtrip" v v'
   | Error e -> Alcotest.failf "ctx decode failed: %a" Err.pp e);
  Alcotest.(check int) "default cache untouched" default_before (default_size ());
  Alcotest.(check bool)
    "ctx cache populated" true
    (Codec.plan_cache_size ~cache:(Ctx.codecs ctx) > 0)

let test_ctx_metrics_are_cache_scoped () =
  (* repeated decodes through one ctx tick hit counters in that ctx's
     registry, and the compiles its cache and its receivers' plans make
     tick compile counters there too — never in another context's *)
  let reg_a = Obs.create () and reg_b = Obs.create () in
  let ctx = Ctx.create ~metrics:reg_a () in
  ignore (Ctx.create ~metrics:reg_b () : Ctx.t);
  let both name = (Obs.Counter.value reg_a name, Obs.Counter.value reg_b name) in
  let r = fmt "format CtxHit { int x; }" in
  let v = Value.record [ ("x", Value.Int 9) ] in
  let msg = Wire.encode ~ctx ~format_id:2 r v in
  for _ = 1 to 4 do
    match Wire.decode ~ctx r msg with
    | Ok v' -> Alcotest.check Helpers.value "roundtrip" v v'
    | Error e -> Alcotest.failf "decode failed: %a" Err.pp e
  done;
  Alcotest.(check bool)
    "ctx registry saw plan-cache hits" true
    (Obs.Counter.value reg_a "codec.plan_cache_hits" > 0);
  Alcotest.(check (pair int int))
    "an encoder and a decoder compiled, in A only" (2, 0) (both "codec.plan_compiles");
  (* a 1-hop Ecode chain whose target needs a final structural conversion *)
  let v2 = fmt "format Ev { int a; int b; }" in
  let v1 = fmt "format Old { int a; }" in
  let registered = fmt "format Old { int a; string note = \"n\"; }" in
  let meta = Morph.meta v2 ~xforms:[ Morph.xform ~target:v1 "old.a = new.a + new.b;" ] in
  let recv = Morph.Receiver.create ~config:(Morph.Receiver.Config.v ~ctx ()) () in
  Morph.Receiver.register recv registered ignore;
  let message =
    Wire.encode ~format_id:3 v2 (Value.record [ ("a", Value.Int 1); ("b", Value.Int 2) ])
  in
  (match Morph.Receiver.deliver_wire recv meta message with
   | Morph.Receiver.Delivered { via = Morph.Receiver.Morphed_converted _; _ } -> ()
   | o -> Alcotest.failf "expected morphed+converted, got %a" Morph.Receiver.pp_outcome o);
  Alcotest.(check (pair int int)) "the hop compiled, in A only" (1, 0) (both "ecode.compiles");
  Alcotest.(check (pair int int))
    "the conversion compiled, in A only" (1, 0) (both "convert.compiles")

let test_ctx_morpher_shares_plans () =
  (* two morpher_in lookups on the same ctx cache compile once, hit once *)
  let reg = Obs.create () in
  let ctx = Ctx.create ~metrics:reg () in
  let cache = Ctx.codecs ctx in
  let a = fmt "format CtxMor { int x; string s; }" in
  let b = fmt "format CtxMor { string s; int x; }" in
  let m1 = Codec.morpher_in cache ~endian:Codec.Little ~from_:a ~into:b in
  let m2 = Codec.morpher_in cache ~endian:Codec.Little ~from_:a ~into:b in
  let v = Value.record [ ("x", Value.Int 3); ("s", Value.String "z") ] in
  let payload = Codec.encode_payload (Codec.encoder_for ~cache ~endian:Codec.Little a) v in
  Alcotest.check Helpers.value "m1 morphs" (Value.record [ ("s", Value.String "z"); ("x", Value.Int 3) ])
    (Codec.morph_payload m1 payload);
  Alcotest.check Helpers.value "m2 agrees"
    (Codec.morph_payload m1 payload) (Codec.morph_payload m2 payload);
  Alcotest.(check bool)
    "second lookup was a cache hit" true
    (Obs.Counter.value reg "codec.plan_cache_hits" > 0)

(* --- Echo.Fanout ------------------------------------------------------------ *)

let show_matrix m =
  Fmt.str "%a" Fmt.(array ~sep:(any "|") (array ~sep:(any ";") Morph.Receiver.pp_outcome)) m

let test_fanout_pool_matches_inline () =
  let a = fmt "format Fan { int x; string s; }" in
  let b = fmt "format Fan { string s; int x; }" in
  let nsinks = 6 and nmsgs = 5 in
  let messages =
    Array.init nmsgs (fun i ->
        Wire.encode ~format_id:3 a
          (Value.record [ ("x", Value.Int i); ("s", Value.String "m") ]))
  in
  let meta = Meta.plain a in
  let make_sinks () =
    let ctx = Ctx.create () in
    Array.init nsinks (fun i ->
        let recv =
          Morph.Receiver.create ~config:(Morph.Receiver.Config.v ~ctx ()) ()
        in
        Morph.Receiver.register recv b (fun _ -> ());
        Echo.Fanout.sink ~name:(Fmt.str "s%d" i) recv)
  in
  let inline = Echo.Fanout.deliver_batch ~sinks:(make_sinks ()) meta messages in
  Alcotest.(check int)
    "all delivered inline" (nsinks * nmsgs)
    (Echo.Fanout.delivered_count inline);
  Pool.with_pool ~domains:3 (fun p ->
      let pooled =
        Echo.Fanout.deliver_batch ~pool:p ~sinks:(make_sinks ()) meta messages
      in
      Alcotest.(check string)
        "outcome matrix identical across pool widths"
        (show_matrix inline) (show_matrix pooled))

(* --- parallel differential oracle ------------------------------------------ *)

let test_parallel_oracle_smoke () =
  let reports = Morphcheck.Parallel_oracle.run ~seed:7 ~count:5 ~domains:2 () in
  Alcotest.(check int)
    "one report per scenario"
    (List.length Morphcheck.Parallel_oracle.names)
    (List.length reports);
  List.iter
    (fun r ->
       if not (Morphcheck.Oracle.passed r) then
         Alcotest.failf "%a" Morphcheck.Oracle.pp_report r)
    reports

let suite =
  [
    Alcotest.test_case "pool: width 1 is Array.map" `Quick test_pool_width1_is_array_map;
    Alcotest.test_case "pool: matches sequential map" `Quick test_pool_matches_sequential;
    Alcotest.test_case "pool: strided index ownership" `Quick test_pool_stride_ownership;
    Alcotest.test_case "pool: re-raises lowest-index exception" `Quick
      test_pool_reraises_lowest_index;
    Alcotest.test_case "pool: shutdown semantics" `Quick test_pool_shutdown;
    Alcotest.test_case "ctx: plan caches are isolated" `Quick test_ctx_cache_isolation;
    Alcotest.test_case "ctx: metrics are cache-scoped" `Quick
      test_ctx_metrics_are_cache_scoped;
    Alcotest.test_case "ctx: morphers share one cache" `Quick test_ctx_morpher_shares_plans;
    Alcotest.test_case "fanout: pool matches inline" `Quick test_fanout_pool_matches_inline;
    Alcotest.test_case "parallel oracle: smoke (2 domains)" `Quick
      test_parallel_oracle_smoke;
  ]
