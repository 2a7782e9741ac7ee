(* A compiled delivery plan: one decided morph path, built once and run per
   message — one generic transformation, specialised once per
   representation. *)

open Pbio

type kind = Fused | Staged

type failure =
  | Decode of Err.t
  | Transform of string

exception Failed of failure

type wire =
  | Morpher of Codec.morpher
  | Decoder of Codec.decoder

type t = {
  kind : kind;
  source : Ptype.record;
  specs : Xform.spec list;
  target : Ptype.record;
  ctx : Ctx.t; (* its cache compiles the wire closures; its registry records *)
  map : Codec.checked option;
  (* a collapsed chain's composed and checked map, compiled per plan; a
     structural fused plan takes the by-name morpher from the cache *)
  mutable transform : (Value.t -> Value.t) option;
  (* what a staged plan runs after its decode; a fused plan's morpher
     converts on its own, so it builds this on the first [transform] *)
  le : wire Lazy.t; (* per byte order, compiled on its first message *)
  be : wire Lazy.t;
}

let compile_wire p endian =
  let cache = Ctx.codecs p.ctx in
  match p.kind, p.map with
  | Fused, None -> Morpher (Codec.morpher_in cache ~endian ~from_:p.source ~into:p.target)
  | Fused, Some map ->
    Morpher (Codec.compile_map_in cache ~endian map)
  | Staged, _ -> Decoder (Codec.decoder_for ~cache ~endian p.source)

(* A value transform whose failures are the plan's: whatever a hop or
   the conversion raises on a value. *)
let guarded f v =
  match f v with
  | v -> v
  | exception (Value.Type_error msg | Coerce.Runtime_error msg) -> raise (Failed (Transform msg))

let make ~ctx ~kind ~source ~specs ~target ?map transform =
  let rec p =
    { kind; source; specs; target; ctx; map; transform = Option.map guarded transform;
      le = lazy (compile_wire p Little);
      be = lazy (compile_wire p Big) }
  in
  p

(* A structural conversion, timed into [ctx]'s registry. *)
let convert ctx ~from_ ~into =
  let m = Ctx.compiles ctx in
  if not m.compile_on then Convert.compile ~from_ ~into
  else begin
    let t0 = Obs.now m.compile_reg in
    let conv = Convert.compile ~from_ ~into in
    Obs.Counter.incr m.convert_compiles;
    Obs.Histogram.observe m.convert_ns (Obs.now m.compile_reg -. t0);
    Obs.Trace.add_attr m.compile_reg "convert" "compiled";
    conv
  end

let compile ?engine ~ctx ~(source : Ptype.record) ~specs ~(target : Ptype.record) () :
  (t, Err.t) result =
  match specs with
  | [] -> Ok (make ~ctx ~kind:Fused ~source ~specs ~target None)
  | _ :: _ ->
    (match Xform.compile_chain ?engine ~ctx ~source specs with
     | Error _ as e -> e
     | Ok hops ->
       let chain = Xform.run_chain hops in
       let endpoint = List.fold_left (fun _ (s : Xform.spec) -> s.target) source specs in
       let transform =
         if Ptype.equal_record endpoint target then chain
         else
           let conv = convert ctx ~from_:endpoint ~into:target in
           fun v -> conv (chain v)
       in
       (* a chain of straight-line hops fuses as one composed map; the
          hop-by-hop chain stays the value transform *)
       let map = Xform.collapse ~source hops ~target in
       let kind = if Option.is_none map then Staged else Fused in
       Ok (make ~ctx ~kind ~source ~specs ~target ?map (Some transform)))

let kind p = p.kind
let source p = p.source
let target p = p.target
let hops p = List.length p.specs

let transform p =
  match p.transform with
  | Some f -> f
  | None ->
    let f =
      if Ptype.equal_record p.source p.target then Fun.id
      else guarded (convert p.ctx ~from_:p.source ~into:p.target)
    in
    p.transform <- Some f;
    f

let read p (message : string) : Value.t =
  let h = Codec.read_header message in
  match Lazy.force (match h.endian with Little -> p.le | Big -> p.be) with
  | Morpher m -> Codec.morph_payload m ~pos:Codec.header_size message
  | Decoder d -> Codec.decode_payload d ~pos:Codec.header_size message

(* The wire step, its failures classified: a malformed message, or a
   fused plan's coercion, which runs once the whole message has read. *)
let step p message =
  match read p message with
  | v -> v
  | exception Codec.Decode_error msg -> raise (Failed (Decode (`Decode msg)))
  | exception Value.Type_error msg -> raise (Failed (Decode (`Type msg)))
  | exception Coerce.Runtime_error msg -> raise (Failed (Transform msg))

let run p message =
  match p.kind with
  | Fused -> step p message
  | Staged -> transform p (step p message)

let decode p message =
  match p.kind with
  | Fused -> step p message
  | Staged -> Wire.metered ~ctx:p.ctx step p message

let pp ppf p =
  let plural = if hops p = 1 then "" else "s" in
  match p.kind, p.map with
  | Fused, None -> Fmt.string ppf "fused"
  | Fused, Some _ -> Fmt.pf ppf "fused, %d hop%s" (hops p) plural
  | Staged, _ -> Fmt.pf ppf "staged, %d hop%s" (hops p) plural
