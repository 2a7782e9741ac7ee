(* The six workloads: the instance under test built from seeded inputs, its
   timed step, the reference checks, cold deliveries, and the traced step
   that adds a shadow decomposition of each message through the public
   layer functions.

   Every step is one closed-loop call by a single caller: the receiver
   thread draining its input queue.  Delivery in this stack is synchronous
   and there is no real network, so an open loop in one thread would only
   add queueing the benchmark itself creates. *)

open Pbio
module R = Morph.Receiver
module Framing = Transport.Framing
module Netsim = Transport.Netsim
module WF = Echo.Wire_formats
module Population = Loadgen.Population

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
let now_ns = Tracer.now_ns

(* Self-test hook: corrupt every reference value, so the checker must
   report a mismatch. *)
let corrupt_reference = ref false

type t = {
  before : int -> unit;
      (** untimed work inside the window before op [i] (gateway storms) *)
  step : int -> unit;  (** op [i], timed as one latency sample *)
  traced_step : Tracer.t -> int -> unit;  (** op [i] with spans and the shadow *)
  delivered : unit -> int;  (** handler deliveries so far *)
  mark_window : unit -> unit;  (** zero the outcome counters *)
  pending : unit -> int;  (** ops accepted but not yet delivered *)
  drain : unit -> unit;  (** finish work still pending after the last op *)
  failures : unit -> int;  (** failed outcomes since [mark_window] *)
  digest : unit -> string;  (** outcome counts since [mark_window] *)
  hit_ratio : unit -> float;  (** plan-cache hits / lookups, whole run *)
  coverage : Tracer.t -> float;  (** shadow layers / real entry time *)
  extras : Tracer.t -> (string * float) list;  (** workload-specific layer metrics *)
  prepare_trace : unit -> (string * float) list;
      (** untimed preparation of a traced run; returns cold-path layer costs *)
  close : unit -> unit;
}

(* --- helpers ------------------------------------------------------------- *)

let rec data_of = function
  | Framing.Data { format_id; message } -> (format_id, message)
  | Framing.Described { frame; _ } -> data_of frame
  | _ -> fail "not a data frame"

let decode_data frame =
  match Framing.decode frame with
  | Ok f -> data_of f
  | Error e -> fail "bad frame: %s" (Err.to_string e)

let rec corrupt_in_place (v : Value.t) : Value.t =
  match v with
  | Value.Record es when Array.length es > 0 ->
    es.(0).Value.v <- corrupt_in_place es.(0).Value.v;
    v
  | Value.Array d when d.Value.len > 0 ->
    d.Value.items.(0) <- corrupt_in_place d.Value.items.(0);
    v
  | Value.Int n -> Value.Int (n lxor 1)
  | Value.Uint n -> Value.Uint (n lxor 1)
  | Value.Float f -> Value.Float (f +. 1.)
  | Value.Char c -> Value.Char (if c = 'x' then 'y' else 'x')
  | Value.Bool b -> Value.Bool (not b)
  | Value.Enum (s, n) -> Value.Enum (s ^ "'", n + 1)
  | Value.String s -> Value.String (s ^ "!")
  | Value.Record _ | Value.Array _ -> Value.String "corrupted"

(* The interpretive reference for one wire message: the per-field
   interpreter's decode, then the receiver semantics on the interpreted
   Ecode engine. *)
let reference ~(meta : Meta.format_meta) ~target message =
  let h = Codec.read_header message in
  let v =
    Codec.Interp.decode_payload ~endian:h.Codec.endian ~pos:Codec.header_size
      meta.Meta.body message
  in
  match Morph.morph_to ~engine:Morph.Xform.Interpreted meta ~target v with
  | Ok v -> if !corrupt_reference then corrupt_in_place (Value.copy v) else v
  | Error e -> fail "reference morph failed: %s" (Err.to_string e)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median wall time of [f ()] over [reps] calls, in microseconds. *)
let micro_us ~reps f =
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         ignore (Sys.opaque_identity (f ()));
         float_of_int (now_ns () - t0) /. 1e3))

(* --- the shadow decomposition --------------------------------------------- *)

type path =
  | Fused of (Codec.endian -> Codec.morpher)  (** one fused decode->morph plan *)
  | Staged of {
      decoder : Codec.endian -> Codec.decoder;
      chain : (Value.t -> Value.t) list;  (** compiled Ecode hops, in order *)
      finish : (Value.t -> Value.t) option;  (** final structural conversion *)
    }

(* How the shadow finds its codec plan: through the codec cache the real
   call uses, or, with no cache (the gateway keeps compiled plans in its
   own plan-cache entries), compiled up front. *)
let by_endian compile =
  let le = compile Codec.Little and be = lazy (compile Codec.Big) in
  function Codec.Little -> le | Codec.Big -> Lazy.force be

let fused ?cache ~from_ ~into () =
  Fused
    (match cache with
     | Some c -> fun endian -> Codec.morpher_in c ~endian ~from_ ~into
     | None -> by_endian (fun endian -> Codec.compile_morph ~endian ~from_ ~into))

let decoder ?cache body =
  match cache with
  | Some c -> fun endian -> Codec.decoder_for ~cache:c ~endian body
  | None -> by_endian (fun endian -> Codec.compile_decode ~endian body)

(* Formats reachable along a meta's transformation chain, each with the
   specs leading to it, nearest first. *)
let reachable (meta : Meta.format_meta) : (Ptype.record * Meta.xform_spec list) list =
  let body = meta.Meta.body in
  let rec go f path acc =
    let next =
      List.find_opt
        (fun (x : Meta.xform_spec) ->
           Ptype.equal_record (Option.value x.source ~default:body) f
           && not (List.exists (fun (g, _) -> Ptype.equal_record g x.target) acc))
        meta.Meta.xforms
    in
    match next with
    | None -> List.rev acc
    | Some x ->
      let path = path @ [ x ] in
      go x.target path ((x.target, path) :: acc)
  in
  go body [] [ (body, []) ]

let compile_chain body specs =
  List.fold_left
    (fun (src, acc) (spec : Meta.xform_spec) ->
       match Morph.Xform.compile ~source:src spec with
       | Ok c -> (spec.Meta.target, c.Morph.Xform.run :: acc)
       | Error e -> fail "shadow chain: %s" (Err.to_string e))
    (body, []) specs
  |> snd |> List.rev

let staged ?cache meta ~target (f, specs) =
  let body = meta.Meta.body in
  Staged
    {
      decoder = decoder ?cache body;
      chain = compile_chain body specs;
      finish =
        (if Ptype.equal_record f target then None
         else Some (Convert.compile ~from_:f ~into:target));
    }

(* The path a receiver took, read off the outcome's [via]: exact matches
   decode staged with no transform, structural conversions fuse, morphs
   decode staged and run the chain to the MaxMatch endpoint. *)
let receiver_path ~cache meta ~target (via : R.via) =
  match via with
  | R.Exact -> Staged { decoder = decoder ~cache meta.Meta.body; chain = []; finish = None }
  | R.Reordered | R.Converted -> fused ~cache ~from_:meta.Meta.body ~into:target ()
  | R.Morphed _ | R.Morphed_converted _ ->
    let reach = reachable meta in
    (match Morph.Maxmatch.max_match (List.map fst reach) [ target ] with
     | None -> fail "shadow: no MaxMatch endpoint"
     | Some m ->
       staged ~cache meta ~target
         (List.find (fun (f, _) -> Ptype.equal_record f m.Morph.Maxmatch.f1) reach))

(* The gateway's plan shape at its best rung: a direct structural match
   fuses, else the nearest chain endpoint that matches the tenant target. *)
let gateway_path meta ~target =
  let th = Morph.Maxmatch.default_thresholds in
  let ok f =
    Ptype.equal_record f target
    || Morph.Maxmatch.qualifies th (Morph.Maxmatch.evaluate_pair f target)
  in
  if ok meta.Meta.body then fused ~from_:meta.Meta.body ~into:target ()
  else
    match List.find_opt (fun (f, p) -> p <> [] && ok f) (reachable meta) with
    | Some fp -> staged meta ~target fp
    | None -> fail "shadow: no gateway plan shape"

type shadow = {
  s_meta : Meta.format_meta;
  s_copy : Meta.format_meta;  (** a decoded copy, as a cache probe compares *)
  s_path : path;
}

let shadow ~meta ~path =
  let s_copy =
    match Meta.decode (Meta.encode meta) with
    | Ok m -> m
    | Error e -> fail "meta roundtrip: %s" (Err.to_string e)
  in
  { s_meta = meta; s_copy; s_path = path }

(* The delivery handlers' body, on a counter nothing reads: the shadow
   times the handler without counting a delivery twice. *)
let shadow_handler =
  let n = ref 0 in
  fun (_ : Value.t) -> incr n

let meta_key tr (s : shadow) =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (Meta.hash s.s_meta));
  ignore (Sys.opaque_identity (Meta.equal s.s_meta s.s_copy));
  let t1 = now_ns () in
  Tracer.add_alloc tr Tracer.Meta_key ~words:(Gc.minor_words () -. w0);
  Tracer.mark tr Tracer.Meta_key t0 t1

(* Steps 1-5 of one message: framing, meta key, codec, chain, handler. *)
let run_shadow tr ~key (s : shadow) frame =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let _, message = decode_data frame in
  let t1 = now_ns () in
  Tracer.add_alloc tr Tracer.Framing ~words:(Gc.minor_words () -. w0);
  Tracer.mark tr Tracer.Framing t0 t1;
  if key then meta_key tr s;
  let t0 = now_ns () in
  let endian = (Codec.read_header message).Codec.endian in
  let pos = Codec.header_size in
  let v =
    match s.s_path with
    | Fused lookup ->
      let m = lookup endian in
      let t1 = now_ns () in
      Tracer.mark tr Tracer.Plan_lookup t0 t1;
      let w0 = Gc.minor_words () in
      let t1 = now_ns () in
      let v = Codec.morph_payload m ~pos message in
      let t2 = now_ns () in
      Tracer.add_alloc tr Tracer.Codec ~words:(Gc.minor_words () -. w0);
      Tracer.mark tr Tracer.Codec t1 t2;
      v
    | Staged { decoder; chain; finish } ->
      let d = decoder endian in
      let t1 = now_ns () in
      Tracer.mark tr Tracer.Plan_lookup t0 t1;
      let w0 = Gc.minor_words () in
      let t1 = now_ns () in
      let v = Codec.decode_payload d ~pos message in
      let t2 = now_ns () in
      Tracer.add_alloc tr Tracer.Codec ~words:(Gc.minor_words () -. w0);
      Tracer.mark tr Tracer.Codec t1 t2;
      if chain = [] && finish = None then v
      else begin
        let t2 = now_ns () in
        let v = List.fold_left (fun v f -> f v) v chain in
        let v = match finish with Some c -> c v | None -> v in
        Tracer.mark tr Tracer.Ecode t2 (now_ns ());
        v
      end
  in
  let t0 = now_ns () in
  shadow_handler v;
  Tracer.mark tr Tracer.Handler t0 (now_ns ())

(* Run the real call and the shadow in alternating order per op, so
   neither always sees the other's cache state. *)
let alternate i real shadow =
  if i land 1 = 0 then begin
    real ();
    shadow ()
  end
  else begin
    shadow ();
    real ()
  end

let sum_layers tr layers =
  List.fold_left (fun acc l -> acc +. Tracer.total_ns tr l) 0. layers

let ratio a b = if b > 0. then a /. b else 0.

(* Shadow time of [layers] per real entry call. *)
let per_entry tr layers =
  sum_layers tr layers /. float_of_int (max 1 (Tracer.calls tr Tracer.Entry))

(* --- receiver outcomes ------------------------------------------------------ *)

let via_names =
  [| "exact"; "reordered"; "converted"; "morphed"; "morphed_converted"; "defaulted";
     "rejected"; "bad_frame" |]

let bad_frame = 7

let via_index : R.outcome -> int = function
  | R.Delivered { via = R.Exact; _ } -> 0
  | R.Delivered { via = R.Reordered; _ } -> 1
  | R.Delivered { via = R.Converted; _ } -> 2
  | R.Delivered { via = R.Morphed _; _ } -> 3
  | R.Delivered { via = R.Morphed_converted _; _ } -> 4
  | R.Defaulted -> 5
  | R.Rejected _ -> 6

let digest_of names counts =
  String.concat " "
    (Array.to_list (Array.mapi (fun i n -> Printf.sprintf "%s=%d" n counts.(i)) names))

let count_from counts first =
  let n = ref 0 in
  for i = first to Array.length counts - 1 do
    n := !n + counts.(i)
  done;
  !n

let new_receiver ?ctx target handler =
  let reg = Obs.create () in
  let ctx = match ctx with Some c -> c | None -> Ctx.create ~metrics:reg () in
  let r = R.create ~config:(R.Config.v ~metrics:reg ~ctx ()) () in
  R.register r target handler;
  (r, ctx)

(* [samples] first deliveries of [meta]/[message], each on a fresh
   receiver with a fresh context, in microseconds. *)
let cold_receiver ~target ~meta ~message samples =
  Array.init samples (fun _ ->
      let r, _ = new_receiver target ignore in
      (* each sample starts on an empty minor heap, so a collection owed by
         the samples before it does not land inside it *)
      Gc.minor ();
      let t0 = now_ns () in
      let o = R.deliver_wire r meta message in
      let t1 = now_ns () in
      (match o with
       | R.Delivered _ -> ()
       | o -> fail "cold delivery: %s" (Format.asprintf "%a" R.pp_outcome o));
      float_of_int (t1 - t0) /. 1e3)

(* Cold-path layer costs on one format: meta decode, MaxMatch over the
   chain's reachable formats, and compiling the chain. *)
let micro_costs (meta : Meta.format_meta) ~target =
  let encoded = Meta.encode meta in
  let reach = List.map fst (reachable meta) in
  let specs = match List.rev (reachable meta) with (_, p) :: _ -> p | [] -> [] in
  [
    ("meta.decode_us", micro_us ~reps:200 (fun () -> Meta.decode encoded));
    ("maxmatch.us", micro_us ~reps:200 (fun () -> Morph.Maxmatch.max_match reach [ target ]));
    ( "ecode.compile_us",
      if specs = [] then 0.
      else micro_us ~reps:50 (fun () -> compile_chain meta.Meta.body specs) );
  ]

(* --- receiver workloads: lineage-small and channel-* -------------------------- *)

type rinput = {
  frames : string array;  (** distinct framed messages *)
  picks : Bytes.t;  (** frame index per op *)
  metas : Meta.format_meta array;  (** by the frame's format_id *)
  target : Ptype.record;  (** the one registered format *)
  dominant : int;  (** frame whose format the cold-path costs are measured on *)
}

let receiver_workload (inp : rinput) : t =
  let delivered = ref 0 in
  let r, ctx = new_receiver inp.target (fun _ -> incr delivered) in
  let counts = Array.make (Array.length via_names) 0 in
  (* every distinct input against the reference, recording its path *)
  let got = ref None in
  R.set_delivery_probe r (Some (fun v _ -> got := v));
  let vias =
    Array.mapi
      (fun i frame ->
         let format_id, message = decode_data frame in
         let meta = inp.metas.(format_id) in
         got := None;
         let via =
           match R.deliver_wire r meta message with
           | R.Delivered { via; _ } -> via
           | o -> fail "input %d: %s" i (Format.asprintf "%a" R.pp_outcome o)
         in
         let want = reference ~meta ~target:inp.target message in
         (match !got with
          | Some v when Value.equal v want -> ()
          | _ -> fail "input %d: delivered value differs from the interpretive reference" i);
         via)
      inp.frames
  in
  R.set_delivery_probe r None;
  let shadows =
    Array.mapi
      (fun i frame ->
         let format_id, _ = decode_data frame in
         let meta = inp.metas.(format_id) in
         shadow ~meta
           ~path:(receiver_path ~cache:(Ctx.codecs ctx) meta ~target:inp.target vias.(i)))
      inp.frames
  in
  let step i =
    match Framing.decode inp.frames.(Inputs.pick inp.picks i) with
    | Ok (Framing.Data { format_id; message }) ->
      let k = via_index (R.deliver_wire r inp.metas.(format_id) message) in
      counts.(k) <- counts.(k) + 1
    | Ok _ | Error _ -> counts.(bad_frame) <- counts.(bad_frame) + 1
  in
  let traced_step tr i =
    let k = Inputs.pick inp.picks i in
    let frame = inp.frames.(k) in
    Tracer.operation tr "message" (fun () ->
        alternate i
          (fun () ->
             let t0 = now_ns () in
             match Framing.decode frame with
             | Ok (Framing.Data { format_id; message }) ->
               let t1 = now_ns () in
               let o = R.deliver_wire r inp.metas.(format_id) message in
               let t2 = now_ns () in
               Tracer.mark tr Tracer.Transport t0 t1;
               Tracer.mark tr Tracer.Entry t1 t2;
               let k = via_index o in
               counts.(k) <- counts.(k) + 1
             | Ok _ | Error _ -> counts.(bad_frame) <- counts.(bad_frame) + 1)
          (fun () -> run_shadow tr ~key:true shadows.(k) frame))
  in
  let shadow_layers =
    Tracer.[ Meta_key; Plan_lookup; Codec; Ecode; Handler ]
  in
  let dominant_id, _ = decode_data inp.frames.(inp.dominant) in
  let dominant_meta = inp.metas.(dominant_id) in
  {
    before = ignore;
    step;
    traced_step;
    delivered = (fun () -> !delivered);
    mark_window = (fun () -> Array.fill counts 0 (Array.length counts) 0);
    pending = (fun () -> 0);
    drain = ignore;
    failures = (fun () -> count_from counts 5);
    digest = (fun () -> digest_of via_names counts);
    hit_ratio =
      (fun () ->
         let s = R.stats r in
         ratio (float_of_int s.R.cache_hits) (float_of_int (s.R.cache_hits + s.R.cold_paths)));
    coverage =
      (fun tr -> ratio (sum_layers tr shadow_layers) (Tracer.total_ns tr Tracer.Entry));
    extras =
      (fun tr ->
         let e = Tracer.mean_ns tr Tracer.Entry in
         [ ("receiver.deliver_ns", e);
           ("receiver.self_ns", e -. per_entry tr shadow_layers) ]);
    prepare_trace = (fun () -> micro_costs dominant_meta ~target:inp.target);
    close = ignore;
  }

let lineage_small ~seed ~total =
  let l = Inputs.lineage ~seed ~n:total in
  let versions = Population.versions l.Inputs.l_pop in
  receiver_workload
    {
      frames = l.Inputs.l_frames;
      picks = l.Inputs.l_picks;
      metas = Array.map (fun (v : Population.version) -> v.Population.meta) versions;
      target = Population.base l.Inputs.l_pop;
      dominant = Array.length versions - 1;
    }

let lineage_cold () =
  let l = Inputs.lineage ~seed:0 ~n:0 in
  let v = Population.versions l.Inputs.l_pop in
  let head = v.(Array.length v - 1) in
  cold_receiver ~target:(Population.base l.Inputs.l_pop) ~meta:head.Population.meta
    ~message:head.Population.bytes

let channel_cold ~meta ~target () =
  let c = Inputs.channel ~seed:0 ~n:0 in
  cold_receiver ~target ~meta ~message:(snd (decode_data c.Inputs.c_frames.(0)))

let channel_workload ~meta ~target ~seed ~total =
  let c = Inputs.channel ~seed ~n:total in
  receiver_workload
    { frames = c.Inputs.c_frames; picks = c.Inputs.c_picks; metas = [| meta |]; target;
      dominant = 0 }

let plain_v2 = Meta.plain WF.channel_open_response_v2
let channel_drop = channel_workload ~meta:plain_v2 ~target:Inputs.channel_header
let channel_keep = channel_workload ~meta:plain_v2 ~target:Inputs.channel_trim

let channel_ecode =
  channel_workload ~meta:WF.response_v2_meta ~target:WF.channel_open_response_v1

(* --- gateway-churn ----------------------------------------------------------- *)

(* Virtual time follows the message index, not the wall clock: compile
   timers, governor windows and breakers are an exact function of the
   seed. *)
let advance_s = 50e-6

let gateway_config = { Gateway.default_config with Gateway.max_plans = 512 }

let new_gateway ?(config = gateway_config) handler =
  let reg = Obs.create ~label:"gateway" () in
  let net = Netsim.create ~metrics:reg () in
  Obs.set_registry_clock reg (fun () -> Netsim.now net *. 1e9);
  let gw = Gateway.create ~config ~metrics:reg ~net (Transport.Contact.make "gateway" 1) handler in
  (gw, net)

let handle gw frame =
  match Framing.decode frame with
  | Ok f -> Gateway.handle_frame gw f
  | Error e -> fail "bad frame: %s" (Err.to_string e)

let push gw frame =
  match handle gw frame with
  | Gateway.Onboarded -> ()
  | _ -> fail "meta push not accepted"

(* The parity pass: one tenant per lineage pushes every version, then
   sends one message of each; every rung must agree with the interpretive
   reference decoder and every value must conform to the target. *)
let gateway_parity (g : Inputs.gateway) =
  let values = ref [] in
  let gw, net =
    new_gateway ~config:{ gateway_config with Gateway.parity = true } (fun d ->
        values := d :: !values)
  in
  for k = 0 to Inputs.gateway_lineages - 1 do
    Array.iter (push gw) g.Inputs.g_meta.(k)
  done;
  for k = 0 to Inputs.gateway_lineages - 1 do
    Array.iter
      (fun frame ->
         ignore (handle gw frame : Gateway.outcome);
         ignore (Netsim.advance net advance_s : int))
      g.Inputs.g_data.(k)
  done;
  ignore (Netsim.advance net 1.0 : int);
  let s = Gateway.stats gw in
  let want = Inputs.gateway_lineages * Inputs.gateway_versions in
  if s.Gateway.parity_mismatches <> 0 then
    fail "gateway parity: %d mismatches" s.Gateway.parity_mismatches;
  if List.length !values <> want then
    fail "gateway parity: %d of %d delivered" (List.length !values) want;
  List.iter
    (fun (d : Gateway.delivery) ->
       let target = Population.base g.Inputs.g_pops.(d.Gateway.tenant mod Inputs.gateway_lineages) in
       if not (Value.conforms (Ptype.Record target) d.Gateway.value) then
         fail "gateway parity: tenant %d delivered a value outside its target" d.Gateway.tenant)
    !values

let rung_names = [| "fused"; "staged"; "interp" |]

let shed_names =
  [| "deadline"; "quota"; "breaker"; "overload"; "unknown_tenant"; "no_meta" |]

let shed_index : Gateway.shed_reason -> int = function
  | Gateway.Deadline -> 0
  | Gateway.Quota -> 1
  | Gateway.Breaker -> 2
  | Gateway.Overload -> 3
  | Gateway.Unknown_tenant -> 4
  | Gateway.No_meta -> 5

(* First delivery of the head version on a fresh gateway: the compile
   fires on the virtual clock, so the sample runs until the handler does. *)
let gateway_cold () =
  let g = Inputs.gateway ~seed:0 ~n:0 in
  let head = Inputs.gateway_versions - 1 in
  let frame =
    match Framing.decode g.Inputs.g_data.(0).(head) with
    | Ok f -> f
    | Error e -> fail "bad frame: %s" (Err.to_string e)
  in
  fun samples ->
  Array.init samples (fun _ ->
      let n = ref 0 in
      let gw, net = new_gateway (fun _ -> incr n) in
      push gw g.Inputs.g_meta.(0).(0);
      push gw g.Inputs.g_meta.(0).(head);
      Gc.minor ();
      let t0 = now_ns () in
      ignore (Gateway.handle_frame gw frame : Gateway.outcome);
      let steps = ref 0 in
      while !n = 0 && !steps < 100_000 do
        ignore (Netsim.advance net advance_s : int);
        incr steps
      done;
      let t1 = now_ns () in
      if !n = 0 then fail "cold gateway delivery never completed";
      float_of_int (t1 - t0) /. 1e3)

let gateway_churn ~seed ~total =
  let g = Inputs.gateway ~seed ~n:total in
  gateway_parity g;
  let delivered = ref 0 in
  let rungs = Array.make 3 0 in
  let sheds = Array.make (Array.length shed_names) 0 in
  let parked = ref 0 and rejected = ref 0 and other = ref 0 in
  let compiles0 = ref 0 in
  let gw, net =
    new_gateway (fun (d : Gateway.delivery) ->
        incr delivered;
        let k = match d.Gateway.rung with Gateway.Fused -> 0 | Gateway.Staged -> 1 | _ -> 2 in
        rungs.(k) <- rungs.(k) + 1)
  in
  for t = 0 to Inputs.tenants - 1 do
    push gw g.Inputs.g_meta.(t).(0)
  done;
  let tally = function
    | Gateway.Delivered _ -> ()
    | Gateway.Parked -> incr parked
    | Gateway.Shed r -> sheds.(shed_index r) <- sheds.(shed_index r) + 1
    | Gateway.Rejected _ -> incr rejected
    | Gateway.Onboarded | Gateway.Ignored _ -> incr other
  in
  (* shadows per (lineage, version) *)
  let shadows =
    Array.map
      (fun pop ->
         let target = Population.base pop in
         Array.map
           (fun (v : Population.version) ->
              shadow ~meta:v.Population.meta
                ~path:(gateway_path v.Population.meta ~target))
           (Population.versions pop))
      g.Inputs.g_pops
  in
  let shadow_of t v = shadows.(t mod Inputs.gateway_lineages).(v) in
  (* the traced run times each push, and the meta keying a push costs: the
     gateway keys plans by the envelope fingerprint, so pushes are where
     it hashes meta-data *)
  let tracer = ref None in
  let storm v =
    match !tracer with
    | None ->
      for t = 0 to Inputs.tenants - 1 do
        push gw g.Inputs.g_meta.(t).(v)
      done
    | Some tr ->
      Tracer.operation tr "storm" (fun () ->
          for t = 0 to Inputs.tenants - 1 do
            let t0 = now_ns () in
            push gw g.Inputs.g_meta.(t).(v);
            Tracer.mark tr Tracer.Meta_push t0 (now_ns ());
            meta_key tr (shadow_of t v)
          done)
  in
  let before i = if i > 0 && i mod Inputs.storm_every = 0 then storm (Inputs.gateway_version i) in
  let step i =
    ignore (Netsim.advance net advance_s : int);
    match Framing.decode g.Inputs.g_data.(Inputs.pick g.Inputs.g_picks i).(Inputs.gateway_version i) with
    | Ok f -> tally (Gateway.handle_frame gw f)
    | Error _ -> incr other
  in
  let stats_now () = Gateway.stats gw in
  let traced_step tr i =
    tracer := Some tr;
    let t = Inputs.pick g.Inputs.g_picks i in
    let v = Inputs.gateway_version i in
    let frame = g.Inputs.g_data.(t).(v) in
    Tracer.operation tr "message" (fun () ->
        alternate i
          (fun () ->
             let t0 = now_ns () in
             ignore (Netsim.advance net advance_s : int);
             let t1 = now_ns () in
             match Framing.decode frame with
             | Ok f ->
               let t2 = now_ns () in
               let o = Gateway.handle_frame gw f in
               let t3 = now_ns () in
               Tracer.mark tr Tracer.Advance t0 t1;
               Tracer.mark tr Tracer.Transport t1 t2;
               Tracer.mark tr Tracer.Entry t2 t3;
               tally o
             | Error _ -> incr other)
          (fun () -> run_shadow tr ~key:false (shadow_of t v) frame))
  in
  let head = Inputs.gateway_versions - 1 in
  let pop0 = g.Inputs.g_pops.(0) in
  {
    before;
    step;
    traced_step;
    delivered = (fun () -> !delivered);
    mark_window =
      (fun () ->
         Array.fill rungs 0 3 0;
         Array.fill sheds 0 (Array.length sheds) 0;
         parked := 0;
         rejected := 0;
         other := 0;
         compiles0 := (stats_now ()).Gateway.plan_compiles);
    pending = (fun () -> Gateway.pending_depth gw);
    drain = (fun () -> ignore (Netsim.advance net 1.0 : int));
    failures = (fun () -> Array.fold_left ( + ) 0 sheds + !rejected + !other);
    digest =
      (fun () ->
         Printf.sprintf "%s parked=%d %s rejected=%d other=%d compiles=%d"
           (digest_of rung_names rungs) !parked (digest_of shed_names sheds) !rejected !other
           ((stats_now ()).Gateway.plan_compiles - !compiles0));
    hit_ratio =
      (fun () ->
         let c = Gateway.cache_stats gw in
         ratio (float_of_int c.Gateway.Plan_cache.hits)
           (float_of_int (c.Gateway.Plan_cache.hits + c.Gateway.Plan_cache.misses)));
    coverage =
      (fun tr ->
         ratio
           (sum_layers tr Tracer.[ Plan_lookup; Codec; Ecode; Handler ])
           (Tracer.total_ns tr Tracer.Entry));
    extras =
      (fun tr ->
         let s = stats_now () and c = Gateway.cache_stats gw in
         let kmsg = float_of_int (max 1 (Tracer.calls tr Tracer.Entry)) /. 1e3 in
         [ ("gateway.handle_ns", Tracer.mean_ns tr Tracer.Entry);
           ("gateway.plan_hit_ratio",
            ratio (float_of_int c.Gateway.Plan_cache.hits)
              (float_of_int (c.Gateway.Plan_cache.hits + c.Gateway.Plan_cache.misses)));
           ("gateway.compiles_per_kmsg",
            float_of_int (s.Gateway.plan_compiles - !compiles0) /. kmsg);
           ("gateway.fused_share",
            ratio (float_of_int rungs.(0)) (float_of_int (Array.fold_left ( + ) 0 rungs)));
           ("gateway.shed_ratio",
            ratio (float_of_int (Array.fold_left ( + ) 0 sheds)) (kmsg *. 1e3));
           ("gateway.meta_push_us", Tracer.mean_ns tr Tracer.Meta_push /. 1e3);
           ("netsim.advance_ns", Tracer.mean_ns tr Tracer.Advance) ]);
    prepare_trace =
      (fun () ->
         let v = (Population.versions pop0).(head) in
         micro_costs v.Population.meta ~target:(Population.base pop0));
    close = ignore;
  }

(* --- fanout-2dom ---------------------------------------------------------------- *)

let fanout_sinks = 32
let fanout_batch = 8
let fanout_domains = min 2 (Domain.recommended_domain_count ())

let fanout_2dom ~seed ~total =
  let c = Inputs.channel ~seed ~n:(total * fanout_batch) in
  let meta = plain_v2 in
  let target = Inputs.channel_trim in
  (* one context shared by every sink: its plan caches are domain-safe,
     its metrics registry must not be, so it keeps Obs.null *)
  let ctx = Ctx.create () in
  let make_sinks prefix =
    Array.init fanout_sinks (fun i ->
        let n = ref 0 in
        let r, _ = new_receiver ~ctx target (fun _ -> incr n) in
        (Echo.Fanout.sink ~name:(Printf.sprintf "%s%d" prefix i) r, n))
  in
  let pooled = make_sinks "sink" in
  let sinks = Array.map fst pooled and counters = Array.map snd pooled in
  let messages = Array.map (fun f -> snd (decode_data f)) c.Inputs.c_frames in
  let wants = Array.map (fun m -> reference ~meta ~target m) messages in
  (* values are compared as they are delivered: 64 messages x 32 sinks
     of kept member lists would not fit in memory at once *)
  let check sinks =
    let mismatch = ref None in
    Array.iteri
      (fun s (sink : Echo.Fanout.sink) ->
         let k = ref 0 in
         R.set_delivery_probe sink.Echo.Fanout.receiver
           (Some
              (fun v _ ->
                 (match v with
                  | Some v when Value.equal v wants.(!k) -> ()
                  | _ -> if !mismatch = None then mismatch := Some (s, !k));
                 incr k)))
      sinks;
    let m = Echo.Fanout.deliver_batch ~sinks meta messages in
    Array.iter
      (fun (sink : Echo.Fanout.sink) -> R.set_delivery_probe sink.Echo.Fanout.receiver None)
      sinks;
    (match !mismatch with
     | Some (s, k) ->
       fail "sink %d, input %d: delivered value differs from the interpretive reference" s k
     | None -> ());
    m
  in
  let vias =
    Array.map
      (function
        | R.Delivered { via; _ } -> via
        | o -> fail "fanout check: %s" (Format.asprintf "%a" R.pp_outcome o))
      (check sinks).(0)
  in
  (* the traced run repeats each batch inline on a twin set of sinks, so
     pooled deliveries are counted once *)
  let inline_sinks =
    lazy
      (let inline = Array.map fst (make_sinks "inline") in
       ignore (check inline : R.outcome array array);
       inline)
  in
  let pool = Morph.Pool.create ~domains:fanout_domains in
  let counts = Array.make (Array.length via_names) 0 in
  let batch = Array.make fanout_batch "" in
  let fill i =
    for j = 0 to fanout_batch - 1 do
      match Framing.decode c.Inputs.c_frames.(Inputs.pick c.Inputs.c_picks ((i * fanout_batch) + j)) with
      | Ok (Framing.Data { message; _ }) -> batch.(j) <- message
      | Ok _ | Error _ -> counts.(bad_frame) <- counts.(bad_frame) + 1
    done
  in
  let tally (m : R.outcome array array) =
    for s = 0 to Array.length m - 1 do
      let row = m.(s) in
      for j = 0 to Array.length row - 1 do
        let k = via_index row.(j) in
        counts.(k) <- counts.(k) + 1
      done
    done
  in
  let step i =
    fill i;
    tally (Echo.Fanout.deliver_batch ~pool ~sinks meta batch)
  in
  let shadows =
    Array.mapi
      (fun k _ ->
         shadow ~meta
           ~path:(receiver_path ~cache:(Ctx.codecs ctx) meta ~target vias.(k)))
      messages
  in
  let traced_step tr i =
    Tracer.operation tr "batch" (fun () ->
        alternate i
          (fun () ->
             let t0 = now_ns () in
             fill i;
             let t1 = now_ns () in
             let m = Echo.Fanout.deliver_batch ~pool ~sinks meta batch in
             let t2 = now_ns () in
             ignore
               (Echo.Fanout.deliver_batch ~sinks:(Lazy.force inline_sinks) meta batch
                : R.outcome array array);
             let t3 = now_ns () in
             Tracer.mark tr Tracer.Transport t0 t1;
             Tracer.mark tr Tracer.Entry t1 t2;
             Tracer.mark tr Tracer.Inline_batch t2 t3;
             tally m)
          (fun () ->
             for j = 0 to fanout_batch - 1 do
               let k = Inputs.pick c.Inputs.c_picks ((i * fanout_batch) + j) in
               run_shadow tr ~key:true shadows.(k) c.Inputs.c_frames.(k)
             done))
  in
  let all_receivers = Array.map (fun (s : Echo.Fanout.sink) -> s.Echo.Fanout.receiver) sinks in
  {
    before = ignore;
    step;
    traced_step;
    delivered =
      (fun () ->
         let n = ref 0 in
         for s = 0 to fanout_sinks - 1 do
           n := !n + !(counters.(s))
         done;
         !n);
    mark_window = (fun () -> Array.fill counts 0 (Array.length counts) 0);
    pending = (fun () -> 0);
    drain = ignore;
    failures = (fun () -> count_from counts 5);
    digest = (fun () -> digest_of via_names counts);
    hit_ratio =
      (fun () ->
         let h, c =
           Array.fold_left
             (fun (h, c) r ->
                let s = R.stats r in
                (h + s.R.cache_hits, c + s.R.cold_paths))
             (0, 0) all_receivers
         in
         ratio (float_of_int h) (float_of_int (h + c)));
    coverage =
      (fun tr ->
         ratio
           (float_of_int fanout_sinks
            *. sum_layers tr Tracer.[ Meta_key; Plan_lookup; Codec; Ecode; Handler ])
           (Tracer.total_ns tr Tracer.Inline_batch));
    extras =
      (fun tr ->
         [ ("fanout.batch_ms", Tracer.mean_ns tr Tracer.Entry /. 1e6);
           ("fanout.inline_batch_ms", Tracer.mean_ns tr Tracer.Inline_batch /. 1e6);
           ("pool.width", float_of_int (Morph.Pool.width pool));
           ("pool.speedup_vs_inline",
            ratio (Tracer.total_ns tr Tracer.Inline_batch) (Tracer.total_ns tr Tracer.Entry));
           ("receiver.deliver_ns",
            Tracer.total_ns tr Tracer.Inline_batch
            /. float_of_int (max 1 (Tracer.calls tr Tracer.Inline_batch * fanout_batch * fanout_sinks))) ]);
    prepare_trace =
      (fun () ->
         ignore (Lazy.force inline_sinks : Echo.Fanout.sink array);
         micro_costs meta ~target);
    close = (fun () -> Morph.Pool.shutdown pool);
  }

(* --- the workload table ------------------------------------------------------- *)

type spec = {
  name : string;
  cold_us : unit -> int -> float array;
      (** prepares inputs that do not depend on the seed, then takes that
          many cold first deliveries of the dominant format *)
  ops : int;
      (** timed calls in a window of [Run.reference_seconds], sized for about
          that many seconds on a 2-core machine and frozen, so outcome counts
          are a pure function of (seed, seconds) *)
  per_op : int;  (** handler deliveries per timed call *)
  receivers : int;  (** receivers those deliveries are spread over *)
  domains : int;  (** domains the workload runs on *)
  setup : seed:int -> total:int -> t;
}

let specs =
  [
    { name = "lineage-small"; ops = 2_000_000; per_op = 1; receivers = 1; domains = 1; setup = lineage_small;
      cold_us = lineage_cold };
    { name = "channel-drop"; ops = 560_000; per_op = 1; receivers = 1; domains = 1; setup = channel_drop;
      cold_us = channel_cold ~meta:plain_v2 ~target:Inputs.channel_header };
    { name = "channel-keep"; ops = 260_000; per_op = 1; receivers = 1; domains = 1; setup = channel_keep;
      cold_us = channel_cold ~meta:plain_v2 ~target:Inputs.channel_trim };
    { name = "channel-ecode"; ops = 24_000; per_op = 1; receivers = 1; domains = 1; setup = channel_ecode;
      cold_us = channel_cold ~meta:WF.response_v2_meta ~target:WF.channel_open_response_v1 };
    { name = "gateway-churn"; ops = 7_000_000; per_op = 1; receivers = 1; domains = 1; setup = gateway_churn;
      cold_us = gateway_cold };
    (* 2000 batches, so lat_p99_us has 20 samples beyond it; a sink's cold
       delivery is channel-keep's *)
    { name = "fanout-2dom"; ops = 2_000; per_op = fanout_batch * fanout_sinks;
      receivers = fanout_sinks;
      domains = fanout_domains; setup = fanout_2dom; cold_us = channel_cold ~meta:plain_v2 ~target:Inputs.channel_trim };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs
