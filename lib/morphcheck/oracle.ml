(* Differential oracles and fuzz targets, with a deterministic campaign
   runner.

   Each oracle is a single randomized test case over one fresh RNG substream
   derived from (campaign seed, case index), so any failing case is
   reproducible from the numbers in its report line alone.

   The differential oracles:
     roundtrip  wire encode/decode is the identity on conforming values
     engines    compiled and interpreted Ecode deliver, fail or refuse
                alike on evolution rollbacks, enum stores, float conditions
                and ill-typed mutants
     chain      a receiver morphing v_n -> v_0 through a spec chain, by
                value and over the wire in both byte orders, equals the
                direct composition of the generated hop transformations
     codec      compiled and fused codec plans equal the interpretive
                reference
     collapse   a chain collapsed into one fused plan delivers what the
                hop-by-hop chain and the interpreter deliver, and fails
                corrupted messages the same way
     near-miss  a loop hop one defect away from collapsing plans staged
                and delivers what the interpreter delivers

   The fuzz targets corrupt encoded buffers and require structured [Error]s
   (never an escaping exception) from the wire, meta, framing and receiver
   decode paths; [fuzz-ecode] corrupts shipped Ecode source and requires
   the same of the Ecode front end. *)

open Pbio

type failure = {
  case : int;
  detail : string;
}

type report = {
  oracle : string;
  cases : int;
  failures : failure list; (* first-seen order, capped *)
  note : string; (* what the campaign counted, if anything *)
}

let passed (r : report) = r.failures = []

exception Counterexample of string

let fail fmt = Fmt.kstr (fun s -> raise (Counterexample s)) fmt

let max_recorded_failures = 10

(* Independent, reproducible substream per case. *)
let case_state ~seed i = Random.State.make [| 0x6d63; seed; i |]

let run_cases ~oracle ~seed ~count (case : Random.State.t -> unit) : report =
  let failures = ref [] in
  let nfail = ref 0 in
  for i = 0 to count - 1 do
    let record detail =
      incr nfail;
      if !nfail <= max_recorded_failures then failures := { case = i; detail } :: !failures
    in
    match case (case_state ~seed i) with
    | () -> ()
    | exception Counterexample msg -> record msg
    | exception e -> record ("uncaught exception: " ^ Printexc.to_string e)
  done;
  { oracle; cases = count; failures = List.rev !failures; note = "" }

(* --- differential oracles ------------------------------------------------- *)

let roundtrip_case st =
  let r, v = Gen.format_and_value st in
  let endian = if Rgen.bool st then Wire.Little else Wire.Big in
  let format_id = Rgen.int_range 0 0xffff st in
  let msg = Wire.encode ~endian ~format_id r v in
  (match Wire.decode r msg with
   | Error e ->
     fail "decode failed on own encoding: %a@ format %s" Err.pp e (Ptype.record_to_string r)
   | Ok v' ->
     if not (Value.equal v v') then
       fail "roundtrip mismatch:@ format %s@ in  %s@ out %s"
         (Ptype.record_to_string r) (Value.to_string v) (Value.to_string v'));
  (match Wire.read_header msg with
   | Error e -> fail "header rejected: %a" Err.pp e
   | Ok h ->
     if h.Wire.format_id <> format_id then
       fail "header format id %d, expected %d" h.Wire.format_id format_id);
  let payload = Wire.encode_payload ~endian r v in
  match Wire.decode_payload ~endian r payload with
  | Error e -> fail "payload decode failed: %a" Err.pp e
  | Ok v' ->
    if not (Value.equal v v') then fail "payload roundtrip mismatch on format %s"
        (Ptype.record_to_string r)

(* The engines campaign's tally: cases both engines delivered alike,
   failed alike, and refused alike at compile time. *)
let engines_delivered = Atomic.make 0
let engines_failed = Atomic.make 0
let engines_refused = Atomic.make 0

(* A generated rollback, or one of three variants of it, run by both
   engines: an int stored into an enum field, drawn in and out of the
   enum's range; a float tested as a condition and stored into a bool; or
   an ill-typed mutant (a read of a field the source lacks, a string into
   a number), which both must refuse at compile time.  Each case expects
   one outcome: an out-of-range enum store fails, a mutant is refused, and
   everything else delivers.  Both engines must give it, with equal values
   or the same text. *)
let engines_case st =
  let before = Gen.record st in
  let s = Evolve.step before st in
  let v = Gen.value_for s.Evolve.after st in
  let extend (r : Ptype.record) fs = { r with fields = r.fields @ fs } in
  let with_field name x =
    Value.Record (Array.append (Value.entries v) [| { Value.name; v = x } |])
  in
  let variant = Rgen.int_range 0 3 st in
  let src, dst, code, v, expect =
    match variant with
    | 0 -> (s.after, s.before, s.code, v, `Delivered)
    | 1 ->
      let enum = Ptype.Basic (Enum { ename = "C"; cases = [ ("a", 0); ("b", 1); ("c", 2) ] }) in
      let wide = Rgen.oneofl [ 0; 2; 3; -1 ] st in
      ( extend s.after [ Ptype.field "wide" Ptype.int_ ],
        extend s.before [ Ptype.field "wide" enum ],
        s.code ^ "old.wide = new.wide;",
        with_field "wide" (Value.Int wide),
        if wide = 0 || wide = 2 then `Delivered else `Failed )
    | 2 ->
      ( extend s.after [ Ptype.field "fc" Ptype.float_ ],
        extend s.before [ Ptype.field "hit" Ptype.int_; Ptype.field "truth" Ptype.bool_ ],
        s.code ^ "if (new.fc) old.hit = 1; else old.hit = 2;\nold.truth = !new.fc;",
        with_field "fc" (Value.Float (Rgen.oneofl [ 0.; -0.; 0.5; -1.5 ] st)),
        `Delivered )
    | _ ->
      ( s.after,
        extend s.before [ Ptype.field "mutant" Ptype.int_ ],
        s.code ^ Rgen.oneofl [ "old.mutant = new.missing;"; "old.mutant = \"s\";" ] st,
        v,
        `Refused )
  in
  let outcome make =
    match make ~src ~dst code with
    | Error e -> `Refused e
    | Ok f ->
      (match f (Value.copy v) with
       | x -> `Delivered x
       | exception (Value.Type_error m | Coerce.Runtime_error m) -> `Failed m)
  in
  let show = function
    | `Delivered x -> "delivered " ^ Value.to_string x
    | `Failed m -> "failed: " ^ m
    | `Refused e -> "refused: " ^ e
  in
  let compiled = outcome (Ecode.compile_xform ?ctx:None) in
  let interpreted = outcome Ecode.interpret_xform in
  let kind = match compiled with `Delivered _ -> `Delivered | `Failed _ -> `Failed | `Refused _ -> `Refused in
  if kind <> expect then
    fail "compiled %s (%a):@ code:@ %s@ input %s" (show compiled) Evolve.pp_op s.op code
      (Value.to_string v);
  match compiled, interpreted with
  | `Delivered a, `Delivered b when Value.equal a b -> Atomic.incr engines_delivered
  | `Failed a, `Failed b when a = b -> Atomic.incr engines_failed
  | `Refused a, `Refused b when a = b -> Atomic.incr engines_refused
  | _ ->
    fail "engines disagree on %a:@ code:@ %s@ input %s@ compiled %s@ interpreted %s"
      Evolve.pp_op s.op code (Value.to_string v) (show compiled) (show interpreted)

let chain_case st =
  let base = Gen.record st in
  let c = Evolve.chain base st in
  let hd = Evolve.head c in
  let v = Gen.value_for hd st in
  let meta = Evolve.meta_of_chain c in
  (* direct composition of the generated hop transformations, newest first *)
  let rollbacks =
    List.rev_map
      (fun (s : Evolve.step) ->
         match Ecode.compile_xform ~src:s.after ~dst:s.before s.code with
         | Ok f -> f
         | Error e -> fail "hop %a does not compile: %s" Evolve.pp_op s.op e)
      c.Evolve.steps
  in
  let expected = List.fold_left (fun x f -> f x) (Value.copy v) rollbacks in
  let hops = List.length c.Evolve.steps in
  let check path got =
    if not (Value.equal got expected) then
      fail "chain mismatch (%s) over %d hops [%a]:@ input %s@ receiver %s@ direct %s"
        path hops
        (Fmt.list ~sep:Fmt.comma Evolve.pp_op)
        (List.map (fun (s : Evolve.step) -> s.op) c.Evolve.steps)
        (Value.to_string v) (Value.to_string got) (Value.to_string expected)
  in
  (match Morph.morph_to meta ~target:c.Evolve.base (Value.copy v) with
   | Error e -> fail "receiver rejected a valid %d-hop chain: %a" hops Err.pp e
   | Ok got -> check "morph_to" got);
  (* the same chain over the wire, in both byte orders through one
     receiver: each order compiles its own closure into the plan *)
  let recv = Morph.Receiver.create () in
  let got = ref None in
  Morph.Receiver.register recv c.Evolve.base (fun x -> got := Some x);
  let first = Rgen.bool st in
  List.iter
    (fun little ->
       let endian = if little then Wire.Little else Wire.Big in
       got := None;
       let o = Morph.Receiver.deliver_wire recv meta (Wire.encode ~endian ~format_id:7 hd v) in
       match o, !got with
       | Morph.Receiver.Delivered _, Some x -> check (if little then "wire LE" else "wire BE") x
       | o, _ -> fail "wire delivery of a valid %d-hop chain: %a" hops Morph.Receiver.pp_outcome o)
    [ first; not first ]

(* An evolved-looking sibling of [r]: same format name, a field dropped
   and/or an extra one appended.  That is the shape MaxMatch resolves with
   a structural conversion — exactly when the receiver's fused
   decode->morph plan applies.  Fields backing variable-array lengths are
   never dropped, so the variant still validates. *)
let structural_variant (r : Ptype.record) st : Ptype.record =
  let referenced =
    let rec refs acc (ty : Ptype.t) =
      match ty with
      | Ptype.Basic _ | Record _ -> acc
      | Array { elem; size } ->
        let acc = match size with Ptype.Length_field n -> n :: acc | Fixed _ -> acc in
        refs acc elem
    in
    List.fold_left (fun acc (f : Ptype.field) -> refs acc f.ftype) [] r.Ptype.fields
  in
  let droppable =
    List.filter
      (fun (f : Ptype.field) -> not (List.mem f.fname referenced))
      r.Ptype.fields
  in
  let fields, dropped =
    if List.length r.Ptype.fields >= 2 && droppable <> [] && Rgen.bool st then begin
      let victim = List.nth droppable (Rgen.int_range 0 (List.length droppable - 1) st) in
      ( List.filter (fun (f : Ptype.field) -> f.fname <> victim.Ptype.fname) r.Ptype.fields,
        true )
    end
    else (r.Ptype.fields, false)
  in
  let fields =
    if (not dropped) || Rgen.bool st then fields @ [ Ptype.field "zz_extra" Ptype.int_ ]
    else fields
  in
  Ptype.record r.Ptype.rname fields

(* [r] with one nested record type evolved as [structural_variant]
   evolves a format: the record of one field, or the element record of
   one array, loses or gains a field, so a nested by-name map converts
   it.  A third of the time two of its fields also swap places, which a
   fused plan reads in two phases instead of one; a swap that would put
   an array before its length field is not made. *)
let nested_variant (r : Ptype.record) st : Ptype.record =
  let nested =
    List.filter
      (fun (f : Ptype.field) ->
         match f.ftype with
         | Ptype.Record _ | Array { elem = Record _; _ } -> true
         | Basic _ | Array _ -> false)
      r.Ptype.fields
  in
  if nested = [] then r
  else begin
    let victim = List.nth nested (Rgen.int_range 0 (List.length nested - 1) st) in
    let evolve (sub : Ptype.record) =
      let sub = structural_variant sub st in
      let n = List.length sub.Ptype.fields in
      if n >= 2 && Rgen.int_range 0 2 st = 0 then begin
        let i = Rgen.int_range 0 (n - 2) st in
        let j = Rgen.int_range (i + 1) (n - 1) st in
        let fs = Array.of_list sub.Ptype.fields in
        let fi = fs.(i) in
        fs.(i) <- fs.(j);
        fs.(j) <- fi;
        let swapped = Ptype.record sub.Ptype.rname (Array.to_list fs) in
        match Ptype.validate swapped with Ok () -> swapped | Error _ -> sub
      end
      else sub
    in
    let ftype =
      match victim.Ptype.ftype with
      | Ptype.Record sub -> Ptype.Record (evolve sub)
      | Array ({ elem = Record sub; _ } as a) -> Array { a with elem = Record (evolve sub) }
      | (Basic _ | Array _) as ty -> ty
    in
    Ptype.record r.Ptype.rname
      (List.map
         (fun (f : Ptype.field) -> if f.fname = victim.Ptype.fname then { f with ftype } else f)
         r.Ptype.fields)
  end

(* Interpretive vs compiled/fused codec: byte-identical encodings,
   value-identical decodings, and fused decode->morph equal to
   decode-then-convert — including through [Receiver.deliver_wire], whose
   cached pipeline picks the fused plan on its own.  Plans come from the
   process default's cache, which the context-free entry points share. *)
let codecs = Ctx.codecs Ctx.default

(* [r] without its top-level lists, as channel-drop's header-only
   receiver takes a ChannelOpenResponse; [None] when [r] has none.  Both
   codec campaigns also morph into it, so every case with a list skips
   one. *)
let without_lists (r : Ptype.record) : Ptype.record option =
  let keep =
    List.filter
      (fun (f : Ptype.field) ->
         match f.ftype with Ptype.Array _ -> false | Basic _ | Record _ -> true)
      r.Ptype.fields
  in
  if List.compare_lengths keep r.Ptype.fields = 0 then None
  else Some (Ptype.record r.Ptype.rname keep)

(* The codec campaigns' tally: cases whose target drops a list of
   string-led records, which a fused plan skips in one loop per list.
   A record is string-led when the codec skips it as one length-prefixed
   string then fixed bytes: its first field a string or a string-led
   record, every later field of fixed size.  A list is dropped when it is
   a top-level source field whose name the target lacks.  A campaign
   with no such case fails. *)
let string_led_lists = Atomic.make 0

let rec fixed_size (ty : Ptype.t) =
  match ty with
  | Ptype.Basic (Int | Uint | Float | Char | Bool) -> true
  | Basic (Enum _ | String) | Array { size = Length_field _; _ } -> false
  | Record r -> List.for_all (fun (f : Ptype.field) -> fixed_size f.ftype) r.Ptype.fields
  | Array { elem; size = Fixed k } -> k >= 0 && fixed_size elem

let rec string_led (r : Ptype.record) =
  match r.Ptype.fields with
  | [] -> false
  | first :: rest ->
    (match first.ftype with
     | Ptype.Basic String -> true
     | Record r -> string_led r
     | Basic _ | Array _ -> false)
    && List.for_all (fun (f : Ptype.field) -> fixed_size f.ftype) rest

let drops_string_led_list (from_ : Ptype.record) (into : Ptype.record) =
  List.exists
    (fun (f : Ptype.field) ->
       match f.ftype with
       | Ptype.Array { elem = Record er; _ } ->
         string_led er && Ptype.find_field into f.fname = None
       | Basic _ | Record _ | Array _ -> false)
    from_.Ptype.fields

let tally_string_led_lists (from_ : Ptype.record) (targets : Ptype.record list) =
  if List.exists (drops_string_led_list from_) targets then Atomic.incr string_led_lists

let codec_case st =
  let r, v = Gen.format_and_value st in
  let endian = if Rgen.bool st then Codec.Little else Codec.Big in
  let format_id = Rgen.int_range 0 0xffff st in
  let ip = Codec.Interp.encode_payload ~endian r v in
  let enc = Codec.encoder_for ~cache:codecs ~endian r in
  if not (String.equal ip (Codec.encode_payload enc v)) then
    fail "compiled encode differs from interpretive on format %s"
      (Ptype.record_to_string r);
  let im = Codec.Interp.encode_message ~endian ~format_id r v in
  if not (String.equal im (Codec.encode_message enc ~format_id v)) then
    fail "compiled message encode differs from interpretive on format %s"
      (Ptype.record_to_string r);
  let iv = Codec.Interp.decode_payload ~endian r ip in
  if not (Value.equal iv v) then
    fail "interpretive decode is not the identity on format %s"
      (Ptype.record_to_string r);
  let cv = Codec.decode_payload (Codec.decoder_for ~cache:codecs ~endian r) ip in
  if not (Value.equal cv iv) then
    fail "compiled decode differs from interpretive:@ format %s@ interp %s@ compiled %s"
      (Ptype.record_to_string r) (Value.to_string iv) (Value.to_string cv);
  (* fused = staged, against an unrelated target, an evolved sibling and
     the source without its lists *)
  let check_target (tgt : Ptype.record) =
    let staged =
      match Convert.convert ~from_:r ~into:tgt iv with
      | Ok x -> x
      | Error e ->
        fail "staged convert failed on conforming value: %a@ %s -> %s" Err.pp e
          (Ptype.record_to_string r) (Ptype.record_to_string tgt)
    in
    let fused =
      Codec.morph_payload
        (Codec.morpher_in codecs ~endian ~from_:r ~into:tgt) ip
    in
    if not (Value.equal staged fused) then
      fail "fused morph differs from decode-then-convert:@ %s -> %s@ staged %s@ fused %s"
        (Ptype.record_to_string r) (Ptype.record_to_string tgt)
        (Value.to_string staged) (Value.to_string fused)
  in
  let unrelated = Gen.record st in
  let tgt = nested_variant (structural_variant r st) st in
  let targets = unrelated :: tgt :: Option.to_list (without_lists r) in
  tally_string_led_lists r targets;
  List.iter check_target targets;
  (* receiver level: a wire delivery (fused when the pipeline allows) must
     agree with decode-then-deliver on a twin receiver, in both byte
     orders through the one receiver [ra] *)
  let meta = Meta.plain r in
  let got_wire = ref None and got_val = ref None in
  let ra = Morph.Receiver.create () in
  Morph.Receiver.register ra tgt (fun x -> got_wire := Some x);
  let rb = Morph.Receiver.create () in
  Morph.Receiver.register rb tgt (fun x -> got_val := Some x);
  let other = if endian = Codec.Little then Codec.Big else Codec.Little in
  List.iter
    (fun im ->
       got_wire := None;
       got_val := None;
       let oa = Morph.Receiver.deliver_wire ra meta im in
       let ob =
         match Wire.decode r im with
         | Ok dv -> Morph.Receiver.deliver rb meta dv
         | Error e -> fail "wire decode failed on own encoding: %a" Err.pp e
       in
       let show o = Fmt.str "%a" Morph.Receiver.pp_outcome o in
       if show oa <> show ob then
         fail "deliver_wire and deliver disagree:@ wire %s@ value %s" (show oa) (show ob);
       if not (Option.equal Value.equal !got_wire !got_val) then
         fail "delivered values differ:@ wire %s@ value %s"
           (match !got_wire with Some x -> Value.to_string x | None -> "<none>")
           (match !got_val with Some x -> Value.to_string x | None -> "<none>"))
    [ im; Codec.Interp.encode_message ~endian:other ~format_id r v ]

(* Value agreement, bit-level via re-encoding: [Value.equal] is IEEE on
   floats, so a mutation that manufactures a NaN would fail it even when
   both sides decoded identical bits. *)
let same fmt a b =
  Value.equal a b
  || (match
        ( Codec.Interp.encode_payload ~endian:Codec.Little fmt a,
          Codec.Interp.encode_payload ~endian:Codec.Little fmt b )
      with
      | x, y -> String.equal x y
      | exception _ -> false)

(* Collapsed chains.  Each case evolves a random base through up to 8
   straight-line hops and registers a receiver at the base or a structural
   variant of it, so a final conversion composes on top.  Two twists make
   a wrong composition show: every chain format declares its own default
   for its numeric and char fields, so a constant a hop leaves behind
   differs from the target's default; and when the head has an enum field,
   half the cases add a newest version that widens it to int, whose
   rollback coerces back into the enum and fails on values no case
   carries — also when a later hop drops the field.  In half the cases
   every hop copies its variable arrays with element-copy loops instead of
   whole-array moves.  A third of all cases are Figure 5's shape instead:
   a random element record with guard fields, rolled back by one loop
   into a projected copy of its list and one or two filtered lists,
   sometimes followed by a hop of moves.  The receiver's wire
   delivery of the head message, a decode followed by the compiled
   hop-by-hop chain, and the interpretive reference must give equal
   values, or all fail, and the delivered value must share no record,
   entry or array between two places.  Corrupted messages (a flipped
   byte, a truncated payload, 1-4 bytes appended, each under a header
   that still fits) must land in the same outcome class at the receiver
   as under reference decode plus interpreted morph; a widened enum's
   value is drawn in and out of the enum's range.  [collapsed] counts the
   cases whose plan collapsed,
   [looped] those of them whose hops run loops; a campaign with none of
   either fails. *)
let collapsed = Atomic.make 0
let looped = Atomic.make 0

(* Version [k]'s declared defaults: distinct per version, of every
   top-level int, unsigned, float, bool and char field. *)
let with_defaults k (r : Ptype.record) : Ptype.record =
  let default (f : Ptype.field) : Ptype.const option =
    match f.ftype with
    | Ptype.Basic (Int | Uint | Float | Bool) -> Some (Ptype.Cint (300 + (7 * k)))
    | Basic Char -> Some (Ptype.Cchar (Char.chr (65 + k)))
    | Basic (String | Enum _) | Record _ | Array _ -> None
  in
  { r with fields = List.map (fun f -> { f with Ptype.fdefault = default f }) r.fields }

(* Half the chains whose head has an enum field gain a newest version with
   that field widened to int; the widened field's name, if any. *)
let widen_enum (c : Evolve.chain) st : Evolve.chain * string option =
  let hd = Evolve.head c in
  match
    List.find_opt
      (fun (f : Ptype.field) -> match f.ftype with Ptype.Basic (Enum _) -> true | _ -> false)
      hd.Ptype.fields
  with
  | Some ({ ftype = Basic (Enum _ as from_); _ } as f) when Rgen.bool st ->
    let after =
      { hd with
        fields =
          List.map
            (fun (g : Ptype.field) -> if g.fname = f.fname then { g with ftype = Ptype.int_ } else g)
            hd.fields }
    in
    let code = Evolve.rollback_code hd after ~renames:[] in
    let widen =
      { Evolve.before = hd; after; code;
        op = Retype { field = f.fname; from_; to_ = Ptype.Int } }
    in
    ({ c with steps = c.steps @ [ widen ] }, Some f.fname)
  | Some _ | None -> (c, None)

(* The chain with every format carrying its version's defaults. *)
let versioned (c : Evolve.chain) : Evolve.chain =
  let steps =
    List.mapi
      (fun k (s : Evolve.step) ->
         { s with before = with_defaults k s.before; after = with_defaults (k + 1) s.after })
      c.steps
  in
  { Evolve.base = with_defaults 0 c.base; steps }

(* A wire message with [payload] under [msg]'s header, its payload length
   patched to fit. *)
let reframe msg payload =
  let h = Bytes.of_string (String.sub msg 0 Codec.header_size) in
  let n = String.length payload in
  (match (Codec.read_header msg).Codec.endian with
   | Codec.Little -> Bytes.set_int32_le h 12 (Int32.of_int n)
   | Codec.Big -> Bytes.set_int32_be h 12 (Int32.of_int n));
  Bytes.to_string h ^ payload

let wire_mutants msg st =
  let payload = String.sub msg Codec.header_size (String.length msg - Codec.header_size) in
  let n = String.length payload in
  let flip =
    if n = 0 then []
    else
      let b = Bytes.of_string payload in
      let i = Rgen.int_range 0 (n - 1) st in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rgen.int_range 0 7 st)));
      [ reframe msg (Bytes.to_string b) ]
  in
  let truncated =
    if n = 0 then [] else [ reframe msg (String.sub payload 0 (Rgen.int_range 0 (n - 1) st)) ]
  in
  let appended = reframe msg (payload ^ Fuzz.random_bytes (Rgen.int_range 1 4) st) in
  flip @ truncated @ [ appended ]

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* [s]'s rollback with each whole-array move of a variable array whose
   length field precedes it written as an element-copy loop; [None] when
   it moves no such array. *)
let with_loops (s : Evolve.step) : Evolve.step option =
  let renames = match s.op with Evolve.Rename { field; to_ } -> [ (field, to_) ] | _ -> [] in
  let after = Array.of_list s.after.Ptype.fields in
  let index = Ptype.field_index s.after in
  let loops = ref false in
  let lines =
    List.filter_map
      (fun (f : Ptype.field) ->
         let src = Option.value (List.assoc_opt f.fname renames) ~default:f.fname in
         Option.map
           (fun k ->
              match f.ftype, after.(k).Ptype.ftype with
              | Ptype.Array { size = Length_field _; _ }, Ptype.Array { size = Length_field n; _ }
                when Option.fold ~none:false ~some:(fun kn -> kn < k) (index n) ->
                loops := true;
                Printf.sprintf "for (i = 0; i < new.%s; i++) old.%s[i] = new.%s[i];" n f.fname src
              | _ -> Printf.sprintf "old.%s = new.%s;" f.fname src)
           (index src))
      s.before.Ptype.fields
  in
  if !loops then Some { s with code = String.concat "\n" ("int i;" :: lines) } else None

(* Figure 5's shape over a random element record [E] with one or two
   guard fields: [Resp { tag; n; E list[n]; tail }] rolls back into a
   projected copy of the list and one or two lists filtered by random
   guards, each element a random subset of [E]'s field groups (basic
   integers sometimes widened to float, sometimes plus a field no store
   writes) or the whole element; sometimes a hop of moves follows.  The
   chain, the head value with small guard values, and the receiver's
   target. *)
let fig5_chain st =
  let field = Ptype.field and var n r = Ptype.array_var n (Ptype.Record r) in
  let sprintf = Printf.sprintf in
  let base = Gen.record_sized 1 (Rgen.int_range 1 3 st) st in
  let guards =
    List.init (Rgen.int_range 1 2 st) (fun k ->
        let ty = Rgen.oneofl [ Ptype.Int; Uint; Char; Bool; Float ] st in
        field (sprintf "p%d" k) (Ptype.Basic ty))
  in
  let groups = Rgen.shuffle (Evolve.groups base @ List.map (fun g -> [ g ]) guards) st in
  let elem = { Ptype.rname = "E"; fields = Evolve.ungroup groups } in
  let project name =
    if Rgen.int_range 0 3 st = 0 then (`Whole, elem)
    else
      let all = Evolve.groups elem in
      let gs =
        match List.filter (fun _ -> Rgen.bool st) all with [] -> [ Rgen.oneofl all st ] | gs -> gs
      in
      let widen (f : Ptype.field) =
        match f.ftype with
        | Ptype.Basic (Int | Uint | Char | Bool) when Rgen.int_range 0 3 st = 0 ->
          { f with ftype = Ptype.float_ }
        | _ -> f
      in
      let fields = List.concat_map (function [ f ] -> [ widen f ] | g -> g) gs in
      let extra = if Rgen.bool st then [ field ~default:(Ptype.Cint 77) "x" Ptype.int_ ] else [] in
      (`Fields, { Ptype.rname = name; fields = fields @ extra })
  in
  let all = project "P" in
  (* (count, list, guard, projection) *)
  let lists =
    List.init (Rgen.int_range 1 2 st) (fun j ->
        let g = Rgen.oneofl guards st in
        let proj = project (sprintf "F%d" (j + 1)) in
        (sprintf "c%d" (j + 1), sprintf "l%d" (j + 1), g.Ptype.fname, proj))
  in
  let src =
    Ptype.record "Resp"
      [ field "tag" Ptype.string_; field "n" Ptype.int_; field "list" (var "n" elem);
        field "tail" Ptype.int_ ]
  in
  let resp lists =
    Ptype.record "Resp"
      ([ field "tag" Ptype.string_; field "n" Ptype.int_; field "all" (var "n" (snd all)) ]
       @ List.concat_map (fun (c, l, _, (_, r)) -> [ field c Ptype.int_; field l (var c r) ]) lists)
  in
  let t = resp lists in
  let incr k = Rgen.oneofl [ k ^ "++"; "++" ^ k; k ^ " += 1" ] st in
  let stores list idx (kind, (r : Ptype.record)) =
    match kind with
    | `Whole -> [ sprintf "old.%s[%s] = new.list[i];" list idx ]
    | `Fields ->
      List.filter_map
        (fun (f : Ptype.field) ->
           if f.fname = "x" then None
           else Some (sprintf "old.%s[%s].%s = new.list[i].%s;" list idx f.fname f.fname))
        r.fields
  in
  let body =
    Rgen.shuffle
      (stores "all" "i" all
       @ List.map
           (fun (c, l, g, proj) ->
              let k = "k" ^ String.sub c 1 1 in
              let block = String.concat " " (stores l k proj) in
              sprintf "if (new.list[i].%s) { %s %s; }" g block (incr k))
           lists)
      st
  in
  let count_n = if Rgen.bool st then [ "old.n = new.n;" ] else [] in
  let loop = sprintf "for (i = 0; i < new.n; %s) {" (incr "i") in
  let counts =
    List.filter_map
      (fun (c, _, _, _) ->
         if Rgen.int_range 0 3 st = 0 then None
         else Some (sprintf "old.%s = k%s;" c (String.sub c 1 1)))
      lists
  in
  let code =
    String.concat "\n"
      (("int i, k1 = 0, k2 = 0;" :: "old.tag = new.tag;" :: count_n)
       @ (loop :: body) @ ("}" :: counts))
  in
  let hop1 = { Evolve.before = t; after = src; op = Evolve.Reorder; code } in
  let steps =
    if Rgen.bool st then [ hop1 ]
    else
      (* moves into [t] less some filtered lists; moving a count reads what
         the loop built, which keeps the chain staged *)
      let kept = List.filter (fun _ -> Rgen.int_range 0 2 st > 0) lists in
      let moves =
        [ "old.tag = new.tag;"; "old.n = new.n;"; "old.all = new.all;" ]
        @ List.concat_map
            (fun (c, l, _, _) ->
               (if Rgen.bool st then [ sprintf "old.%s = new.%s;" c c ] else [])
               @ [ sprintf "old.%s = new.%s;" l l ])
            kept
      in
      [ { Evolve.before = resp kept; after = t; op = Evolve.Reorder;
          code = String.concat "\n" moves };
        hop1 ]
  in
  let c = { Evolve.base = (List.hd steps).Evolve.before; steps } in
  let v = Gen.value_for src st in
  let small (f : Ptype.field) =
    match f.ftype with
    | Ptype.Basic Int -> Value.Int (Rgen.oneofl [ 0; 1; 2; -1 ] st)
    | Basic Uint -> Value.Uint (Rgen.oneofl [ 0; 1; 2 ] st)
    | Basic Char -> Value.Char (Rgen.oneofl [ '\000'; 'a' ] st)
    | Basic Bool -> Value.Bool (Rgen.bool st)
    | Basic Float -> Value.Float (Rgen.oneofl [ 0.; 0.5; -0.5; 1.5; 2. ] st)
    | Basic (String | Enum _) | Record _ | Array _ -> Value.Int 0
  in
  let list = Value.get_field v "list" in
  for e = 0 to Value.array_len list - 1 do
    List.iter
      (fun (g : Ptype.field) -> Value.set_field (Value.array_get list e) g.fname (small g))
      guards
  done;
  let target = if Rgen.int_range 0 3 st = 0 then structural_variant c.base st else c.base in
  (c, v, target)

(* Where two places of a value share a mutable record, entry or array. *)
let shared (v : Value.t) : bool =
  let records = ref [] and entries = ref [] and arrays = ref [] in
  let seen l x = List.memq x !l || (l := x :: !l; false) in
  let rec go = function
    | Value.Record es ->
      seen records es
      || Array.exists (fun (e : Value.entry) -> seen entries e || go e.v) es
    | Array d ->
      seen arrays d
      || (let rec items k = k < d.Value.len && (go d.Value.items.(k) || items (k + 1)) in
          items 0)
    | Int _ | Uint _ | Float _ | Char _ | Bool _ | Enum _ | String _ -> false
  in
  go v

(* How a delivery ended: the campaigns compare outcome classes. *)
let show = function
  | `Delivered x -> "delivered " ^ Value.to_string x
  | `Decode -> "decode failure"
  | `Transform -> "transformation failure"
  | `No_path -> "no path"

let same_outcome target a b =
  match a, b with
  | `Delivered x, `Delivered y -> same target x y
  | `Decode, `Decode | `Transform, `Transform | `No_path, `No_path -> true
  | _ -> false

(* A receiver of [target], and its wire delivery of [meta]'s messages as
   an outcome.  A receiver quarantines a pipeline whose transformation
   fails three times in a row, so a delivery that fails one starts a
   fresh receiver: no message is compared on a receiver that earlier
   messages quarantined. *)
let wire_receiver meta target =
  let got = ref None in
  let fresh () =
    let r = Morph.Receiver.create () in
    Morph.Receiver.register r target (fun x -> got := Some x);
    r
  in
  let recv = ref (fresh ()) in
  let deliver m =
    got := None;
    match Morph.Receiver.deliver_wire !recv meta m, !got with
    | Morph.Receiver.Delivered _, Some x -> `Delivered x
    | Rejected r, _ when starts_with "wire decode failed" r -> `Decode
    | Rejected r, _ when starts_with "transformation failed" r ->
      recv := fresh ();
      `Transform
    | _ -> `No_path
  in
  (!recv, deliver)

(* [meta]'s hops run by the interpreter, then converted into [target]. *)
let interpreted meta target dv =
  match Morph.morph_to ~engine:Morph.Xform.Interpreted meta ~target dv with
  | Ok x -> `Delivered x
  | Error (`No_match r) when starts_with "transformation failed" r -> `Transform
  | Error _ -> `No_path

(* Reference decode of a message of [meta]'s body, then [morph]. *)
let reference (meta : Meta.format_meta) morph m =
  match
    Codec.Interp.decode_payload ~endian:(Codec.read_header m).Codec.endian
      ~pos:Codec.header_size meta.Meta.body m
  with
  | exception (Codec.Decode_error _ | Value.Type_error _) -> `Decode
  | dv -> morph dv

let collapse_case st =
  let c, v, target, loops =
    if Rgen.int_range 0 2 st = 0 then
      let c, v, target = fig5_chain st in
      (c, v, target, true)
    else
      let base = Gen.record st in
      let c, widened = widen_enum (Evolve.chain ~max_steps:8 base st) st in
      let c = versioned c in
      let c, loops =
        if Rgen.bool st then
          let looped = List.map with_loops c.Evolve.steps in
          ( { c with steps = List.map2 (fun s l -> Option.value l ~default:s) c.steps looped },
            List.exists Option.is_some looped )
        else (c, false)
      in
      let target = if Rgen.bool st then c.Evolve.base else structural_variant c.Evolve.base st in
      let hd = Evolve.head c in
      let v = Gen.value_for hd st in
      (match widened with
       | Some f -> Value.set_field v f (Value.Int (Rgen.oneofl [ 0; 1; 5; 2; 7 ] st))
       | None -> ());
      (c, v, target, loops)
  in
  let meta = Evolve.meta_of_chain c in
  let hd = Evolve.head c in
  let endian = if Rgen.bool st then Wire.Little else Wire.Big in
  let msg = Wire.encode ~endian ~format_id:9 hd v in
  let recv, receiver = wire_receiver meta target in
  let plan = Morph.Receiver.plan recv meta in
  (match plan with
   | Ok p when Morph.Plan.kind p = Morph.Plan.Fused && Morph.Plan.hops p > 0 ->
     Atomic.incr collapsed;
     if loops then Atomic.incr looped
   | Ok _ | Error _ -> ());
  (* decode, then the compiled hop-by-hop chain *)
  let chained dv =
    match plan with
    | Error _ -> `No_path
    | Ok p ->
      (match Morph.Plan.transform p dv with
       | x -> `Delivered x
       | exception Morph.Plan.Failed _ -> `Transform)
  in
  let reference = reference meta (interpreted meta target) in
  let hops = List.length c.Evolve.steps in
  let agree what a b =
    if not (same_outcome target a b) then
      fail "%s over %d hops [%a] into %s:@ receiver %s@ %s" what hops
        (Fmt.list ~sep:Fmt.comma (fun ppf (s : Evolve.step) ->
             Fmt.pf ppf "%a: %s" Evolve.pp_op s.op s.code))
        c.Evolve.steps
        (Ptype.record_to_string target) (show a) (show b)
  in
  let delivered = receiver msg in
  agree "hop-by-hop chain" delivered (chained (Value.copy v));
  agree "reference" delivered (reference msg);
  (match delivered with
   | `Delivered x when shared x ->
     fail "the delivered value shares a record, entry or array:@ %s" (Value.to_string x)
   | _ -> ());
  List.iter (fun m -> agree "corrupted message" (receiver m) (reference m)) (wire_mutants msg st)

(* Near misses: loop hops one defect away from collapsing.  Each case
   writes a hop over [S { tag; n; E list[n]; m }], with [E] a random
   element record plus an int [q], an int [x] and a guard [p], of Figure
   5's shape (a projected copy of [list] and a copy filtered by [p]) or
   of [with_loops]' (each element copied whole), with one defect: a loop
   over an array of ints that also fills a list of records, a bound that
   is not the array's length field ([new.m]), a bound that a shared
   length field overwrote (an earlier hop leaves [n] at 0 beside a
   second array), a length field after its array, a nested loop, an enum
   coercion inside a loop, one a later store overwrites (an element store
   over its field, or the whole list stored over after the loop), a
   counter that does not start at 0, an [else], a read of [old], or [i]
   used as a value.  Each must plan staged, and the receiver's wire
   delivery must equal reference decode plus the interpreter, or fail in
   the same outcome class.  [near_misses] counts the cases; a campaign
   with none fails. *)
let near_misses = Atomic.make 0

let defects =
  [ "ints"; "bound"; "overwritten"; "late"; "nested"; "old"; "i"; "enum"; "hidden"; "counter";
    "else" ]

let near_miss_case st =
  let field = Ptype.field and var n ty = Ptype.array_var n ty in
  let sprintf = Printf.sprintf in
  let defect = Rgen.oneofl defects st in
  (* the last three need Figure 5's guarded append or field stores; a
     list of ints has neither *)
  let fig5 =
    match defect with
    | "enum" | "counter" | "else" -> true
    | "ints" | "hidden" -> false
    | _ -> Rgen.bool st
  in
  let guard = field "p" (Ptype.Basic (Rgen.oneofl [ Ptype.Int; Uint; Char; Bool; Float ] st)) in
  let base = Gen.record_sized 1 (Rgen.int_range 1 3 st) st in
  let enum = Ptype.enum "C" [ ("a", 0); ("b", 1); ("c", 2) ] in
  let elem =
    { Ptype.rname = "E";
      fields =
        Evolve.ungroup
          (Rgen.shuffle
             (Evolve.groups base
              @ [ [ guard ]; [ field "q" Ptype.int_ ]; [ field "x" Ptype.int_ ] ]
              @ if defect = "hidden" then [ [ field "e" enum ] ] else [])
             st) }
  in
  (* the copies' element record and the stores that fill one copy *)
  let copy, stores =
    if not fig5 then (elem, fun l k -> [ sprintf "old.%s[%s] = new.list[i];" l k ])
    else
      let gs = List.filter (fun _ -> Rgen.bool st) (Evolve.groups elem) in
      let fs =
        List.filter (fun (f : Ptype.field) -> f.fname <> "x") (Evolve.ungroup gs)
        @ [ field "x" Ptype.int_ ]
        @ if defect = "enum" then [ field "e" enum ] else []
      in
      ( { Ptype.rname = "P"; fields = fs },
        fun l k ->
          List.filter_map
            (fun (f : Ptype.field) ->
               if f.fname = "e" then None
               else Some (sprintf "old.%s[%s].%s = new.list[i].%s;" l k f.fname f.fname))
            fs )
  in
  let ints = Ptype.Basic (Rgen.oneofl [ Ptype.Int; Uint; Float; Char; Bool ] st) in
  let list_elem = if defect = "ints" then ints else Ptype.Record elem in
  let src =
    Ptype.record "S"
      (if defect = "late" then
         [ field "tag" Ptype.string_; field "list" (var "n" list_elem); field "n" Ptype.int_;
           field "m" Ptype.int_ ]
       else
         [ field "tag" Ptype.string_; field "n" Ptype.int_; field "list" (var "n" list_elem);
           field "m" Ptype.int_ ])
  in
  let kept r = [ field "c" Ptype.int_; field "kept" (var "c" (Ptype.Record r)) ] in
  let t =
    Ptype.record "T"
      (if defect = "ints" then
         [ field "n" Ptype.int_; field "all" (var "n" ints) ]
         @ kept (Ptype.record "R" [ field "x" Ptype.int_ ])
       else
         [ field "n" Ptype.int_; field "all" (var "n" (Ptype.Record copy)) ]
         @ if fig5 then kept copy else [])
  in
  let extra =
    match defect with
    | "ints" ->
      [ "old.all[i] = new.list[i];"; sprintf "old.kept[i].x = %d;" (Rgen.int_range 0 9 st) ]
    | "nested" -> [ "for (j = 0; j < new.n; j++) old.all[i].x = new.list[j].q;" ]
    | "old" -> [ "old.all[i].x = old.n;" ]
    | "i" -> [ "old.all[i].x = i;" ]
    | "enum" -> [ "old.all[i].e = new.list[i].q;" ]
    | "hidden" ->
      "old.all[i].e = new.list[i].q;" :: (if Rgen.bool st then [ "old.all[i].e = 0;" ] else [])
    | _ -> []
  in
  (* the whole list stored over when no element store hides the enum's *)
  let after =
    if defect = "hidden" && List.length extra = 1 then [ "old.all = new.list;" ] else []
  in
  let body =
    (if defect = "ints" then extra else stores "all" "i" @ extra)
    @
    if fig5 then
      [ sprintf "if (new.list[i].p) { %s k++; }%s" (String.concat " " (stores "kept" "k"))
          (if defect = "else" then " else { }" else "") ]
    else []
  in
  let code =
    String.concat "\n"
      ([ sprintf "int i, j, k = %d;" (if defect = "counter" then 1 else 0); "old.n = new.n;";
         sprintf "for (i = 0; i < new.%s; i++) {" (if defect = "bound" then "m" else "n") ]
       @ body
       @ ("}" :: after)
       @ if fig5 then [ "old.c = k;" ] else [])
  in
  (* a first hop whose sync leaves [n] at 0: [extra] shares it, empty *)
  let shared =
    Ptype.record "S"
      [ field "n" Ptype.int_; field "list" (var "n" list_elem); field "extra" (var "n" list_elem);
        field "k" Ptype.int_ ]
  in
  let xforms =
    if defect = "overwritten" then
      [ Morph.xform ~target:shared "old.n = new.n; old.list = new.list; old.k = new.n;";
        Morph.xform ~source:shared ~target:t code ]
    else [ Morph.xform ~target:t code ]
  in
  (* built as a record: [Morph.meta] refuses a length field after its array *)
  let meta = { Meta.body = src; xforms } in
  let v = Gen.value_for src st in
  let list = Value.get_field v "list" in
  for e = 0 to Value.array_len list - 1 do
    match Value.array_get list e with
    | Value.Record _ as r ->
      (* in and out of the range of [C], which [q] is stored into *)
      Value.set_field r "q" (Value.Int (Rgen.int_range 0 4 st));
      Value.set_field r "p"
        (match guard.ftype with
         | Ptype.Basic Float -> Value.Float (Rgen.oneofl [ 0.; 0.5; -1.5 ] st)
         | ty -> Coerce.box_int ty (Rgen.int_range 0 2 st))
    | _ -> ()
  done;
  Value.set_field v "m" (Value.Int (Rgen.int_range 0 (Value.array_len list + 1) st));
  let endian = if Rgen.bool st then Wire.Little else Wire.Big in
  let msg =
    if defect <> "late" then Wire.encode ~endian ~format_id:9 src v
    else begin
      (* an empty list under a length field that says otherwise *)
      Value.set_field v "list" (Value.array_of_list []);
      Value.set_field v "n" (Value.Int 0);
      let b = Bytes.of_string (Wire.encode ~endian ~format_id:9 src v) in
      let at = Bytes.length b - 8 and n = Int32.of_int (Rgen.int_range 1 3 st) in
      (match endian with
       | Wire.Little -> Bytes.set_int32_le b at n
       | Wire.Big -> Bytes.set_int32_be b at n);
      Bytes.to_string b
    end
  in
  let recv, receiver = wire_receiver meta t in
  let what = sprintf "%s (%s) [%s]" defect (if fig5 then "Fig. 5" else "whole copies") code in
  (match Morph.Receiver.plan recv meta with
   | Ok p when Morph.Plan.kind p = Morph.Plan.Staged -> Atomic.incr near_misses
   | Ok p -> fail "%s:@ planned %a" what Morph.Plan.pp p
   | Error e -> fail "%s:@ %s" what e);
  let delivered = receiver msg and want = reference meta (interpreted meta t) msg in
  if not (same_outcome t delivered want) then
    fail "%s:@ receiver %s@ reference %s" what (show delivered) (show want)

(* --- fuzz targets --------------------------------------------------------- *)

let fuzz_wire_case st =
  let r, v = Gen.format_and_value st in
  let msg = Wire.encode ~format_id:3 r v in
  let bad = Fuzz.mutate msg st in
  (* must return, never raise *)
  (match Wire.read_header bad with Ok _ | Error _ -> ());
  (match Wire.decode r bad with Ok _ | Error _ -> ());
  match Wire.decode_payload r bad with Ok _ | Error _ -> ()

let fuzz_meta_case st =
  let base = Gen.record st in
  let c = Evolve.chain base st in
  let encoded = Meta.encode (Evolve.meta_of_chain c) in
  let bad = Fuzz.mutate encoded st in
  match Meta.decode bad with
  | Error _ -> ()
  | Ok m ->
    (* a decoded-but-corrupt format must still be safe to validate *)
    (match Ptype.validate m.Meta.body with Ok () | Error _ -> ())

let fuzz_framing_case st =
  let r, v = Gen.format_and_value st in
  let frame =
    Rgen.frequencyl
      [ (3, Transport.Framing.Data { format_id = 7; message = Wire.encode ~format_id:7 r v });
        (2, Transport.Framing.Meta { format_id = 7; meta = Meta.encode (Meta.plain r) });
        (1, Transport.Framing.Meta_request { format_id = 7 }) ]
      st
  in
  let bad = Fuzz.mutate (Transport.Framing.encode frame) st in
  match Transport.Framing.decode bad with Ok _ | Error _ -> ()

(* Corrupted payloads: interpretive and compiled decoders must agree on
   acceptance (with equal values) or rejection, and the fused plan must
   agree with staged decode-then-convert — same discipline the codec_case
   oracle checks on well-formed input, under mutation.  Besides byte
   mutations, length slots are inflated and the payload is cut to a
   hostile window, so truncation lands inside skipped spans (including
   the coalesced fixed-width runs of dropped fields).  Error *text* may
   differ: a coalesced skip blames its whole span where a decoder blames
   the first missing field. *)
let fuzz_codec_case st =
  let r, v = Gen.format_and_value st in
  let endian = if Rgen.bool st then Codec.Little else Codec.Big in
  let payload = Codec.Interp.encode_payload ~endian r v in
  let mutated =
    Rgen.frequencyl
      [ (3, Fuzz.mutate payload); (2, Fuzz.inflate_slot payload);
        (1, Rgen.bind (Fuzz.mutate payload) Fuzz.inflate_slot) ]
      st st
  in
  let pos, len = Fuzz.sub_extent (String.length mutated) st in
  let bad = String.sub mutated pos len in
  let catch f =
    match f () with
    | x -> Ok x
    | exception Codec.Decode_error m -> Error m
    | exception Value.Type_error m -> Error m
  in
  let interp = catch (fun () -> Codec.Interp.decode_payload ~endian r bad) in
  let compiled = catch (fun () -> Codec.decode_payload (Codec.decoder_for ~cache:codecs ~endian r) bad) in
  (match interp, compiled with
   | Ok a, Ok b ->
     if not (same r a b) then
       fail "decoders accept mutated payload with different values:@ interp %s@ compiled %s"
         (Value.to_string a) (Value.to_string b)
   | Error _, Error _ -> ()
   | Ok _, Error m -> fail "compiled rejects what the interpreter accepts: %s" m
   | Error m, Ok _ -> fail "compiled accepts what the interpreter rejects (interp: %s)" m);
  let check_target tgt =
    let staged =
      match interp with
      | Error m -> Error m
      | Ok a ->
        (match Convert.convert ~from_:r ~into:tgt a with
         | Ok x -> Ok x
         | Error e -> Error (Err.to_string e))
    in
    let fused =
      catch (fun () ->
          Codec.morph_payload
            (Codec.morpher_in codecs ~endian ~from_:r ~into:tgt) bad)
    in
    match staged, fused with
    | Ok a, Ok b ->
      if not (same tgt a b) then
        fail "staged and fused accept mutated payload with different values:@ staged %s@ fused %s"
          (Value.to_string a) (Value.to_string b)
    | Error _, Error _ -> ()
    | Ok _, Error m -> fail "fused rejects what the staged path accepts: %s" m
    | Error m, Ok _ -> fail "fused accepts what the staged path rejects (staged: %s)" m
  in
  let targets = nested_variant (structural_variant r st) st :: Option.to_list (without_lists r) in
  tally_string_led_lists r targets;
  List.iter check_target targets

let fuzz_receiver_case st =
  let base = Gen.record st in
  let c = Evolve.chain ~max_steps:2 base st in
  let meta = Evolve.meta_of_chain c in
  let hd = Evolve.head c in
  let v = Gen.value_for hd st in
  let recv = Morph.Receiver.create () in
  Morph.Receiver.register recv c.Evolve.base (fun _ -> ());
  let msg = Wire.encode ~format_id:5 hd v in
  let bad = Fuzz.mutate msg st in
  (* any outcome is fine — Rejected included — but no exception may escape *)
  ignore (Morph.Receiver.deliver_wire recv meta bad)

let ecode_parsed = Atomic.make 0
let ecode_compiled = Atomic.make 0

(* A snippet a sender ships, with the formats it runs over: a generated
   evolution hop, Figure 5's rollback or ECho's event rollback. *)
let shipped_snippet st =
  let open Echo.Wire_formats in
  match Rgen.int_range 0 4 st with
  | 0 -> (channel_open_response_v2, channel_open_response_v1, response_v2_to_v1_code)
  | 1 -> (event_msg_v2, event_msg, event_v2_to_v1_code)
  | _ ->
    let s = Evolve.step (Gen.record st) st in
    (s.Evolve.after, s.Evolve.before, s.Evolve.code)

(* Mutated Ecode source, byte-level or with a hostile fragment spliced
   between tokens: parsing it and compiling it with either engine returns
   [Ok] or [Error], never an exception, and both engines accept or refuse
   alike. *)
let fuzz_ecode_case st =
  let src, dst, code = shipped_snippet st in
  let bad =
    Rgen.frequencyl
      [ (1, Fuzz.mutate code); (3, Fuzz.splice_hostile code);
        (1, Rgen.bind (Fuzz.mutate code) Fuzz.splice_hostile) ]
      st st
  in
  let total what f =
    match f () with
    | Ok _ -> true
    | Error _ -> false
    | exception e -> fail "%s raised %s on@ %S" what (Printexc.to_string e) bad
  in
  if total "Ecode.parse" (fun () -> Ecode.parse bad) then Atomic.incr ecode_parsed;
  let compiled = total "Ecode.compile_xform" (fun () -> Ecode.compile_xform ~src ~dst bad) in
  let interpreted =
    total "Ecode.interpret_xform" (fun () -> Ecode.interpret_xform ~src ~dst bad)
  in
  if compiled then Atomic.incr ecode_compiled;
  if compiled <> interpreted then
    fail "compile_xform %s what interpret_xform %s:@ %S"
      (if compiled then "accepts" else "refuses")
      (if interpreted then "accepts" else "refuses")
      bad

(* --- campaign ------------------------------------------------------------- *)

let oracles : (string * (Random.State.t -> unit)) list =
  [
    ("roundtrip", roundtrip_case);
    ("engines", engines_case);
    ("chain", chain_case);
    ("codec", codec_case);
    ("collapse", collapse_case);
    ("near-miss", near_miss_case);
    ("fuzz-wire", fuzz_wire_case);
    ("fuzz-codec", fuzz_codec_case);
    ("fuzz-meta", fuzz_meta_case);
    ("fuzz-framing", fuzz_framing_case);
    ("fuzz-receiver", fuzz_receiver_case);
    ("fuzz-ecode", fuzz_ecode_case);
  ]

let names = List.map fst oracles

let fuzz_names = List.filter (fun n -> String.length n > 5 && String.sub n 0 5 = "fuzz-") names

(* The engines campaign's verdict on its own tally: a campaign where no
   case failed alike, or none was refused by both, checked nothing of
   that kind. *)
let engines_report (r : report) =
  let d = Atomic.get engines_delivered
  and f = Atomic.get engines_failed
  and m = Atomic.get engines_refused in
  let r =
    { r with
      note = Fmt.str "%d cases: %d delivered, %d failed alike, %d refused by both" r.cases d f m }
  in
  let none what = { case = -1; detail = "no case " ^ what } in
  if r.cases = 0 then r
  else if f = 0 then { r with failures = r.failures @ [ none "failed alike" ] }
  else if m = 0 then { r with failures = r.failures @ [ none "refused by both" ] }
  else r

(* The collapse campaign's verdict on its own tally. *)
let collapse_report (r : report) =
  let n = Atomic.get collapsed and m = Atomic.get looped in
  let r = { r with note = Fmt.str "%d collapsed (%d with loops)" n m } in
  let none what = { case = -1; detail = "no case collapsed" ^ what } in
  if r.cases = 0 then r
  else if n = 0 then { r with failures = r.failures @ [ none "" ] }
  else if m = 0 then { r with failures = r.failures @ [ none " with loops" ] }
  else r

(* The codec campaigns' verdict on their own tally. *)
let codec_report (r : report) =
  let n = Atomic.get string_led_lists in
  let r = { r with note = Fmt.str "%d drop a string-led list" n } in
  if r.cases > 0 && n = 0 then
    { r with failures = r.failures @ [ { case = -1; detail = "no case dropped a string-led list" } ] }
  else r

(* The fuzz-ecode campaign's verdict on its own tally: a campaign where
   no mutant parsed, or none compiled, never reached the checker or the
   compilers. *)
let ecode_report (r : report) =
  let n = Atomic.get ecode_parsed and m = Atomic.get ecode_compiled in
  let r = { r with note = Fmt.str "%d parsed, %d compiled" n m } in
  let none what = { case = -1; detail = "no case " ^ what } in
  if r.cases = 0 then r
  else if n = 0 then { r with failures = r.failures @ [ none "parsed" ] }
  else if m = 0 then { r with failures = r.failures @ [ none "compiled" ] }
  else r

(* The near-miss campaign's verdict on its own tally: every case that
   passed planned staged. *)
let near_miss_report (r : report) =
  let n = Atomic.get near_misses in
  let staged = if n = r.cases then "all" else string_of_int n in
  let r = { r with note = Fmt.str "%d near misses, %s staged" r.cases staged } in
  if r.cases > 0 && n = 0 then
    { r with failures = r.failures @ [ { case = -1; detail = "no near miss generated" } ] }
  else r

let run ?names:(selected = names) ~seed ~count () : report list =
  List.map
    (fun name ->
       match List.assoc_opt name oracles with
       | None -> invalid_arg ("Oracle.run: unknown oracle " ^ name)
       | Some case ->
         List.iter
           (fun c -> Atomic.set c 0)
           [ collapsed; looped; near_misses; engines_delivered; engines_failed; engines_refused;
             string_led_lists; ecode_parsed; ecode_compiled ];
         let r = run_cases ~oracle:name ~seed ~count case in
         match name with
         | "engines" -> engines_report r
         | "collapse" -> collapse_report r
         | "near-miss" -> near_miss_report r
         | "codec" | "fuzz-codec" -> codec_report r
         | "fuzz-ecode" -> ecode_report r
         | _ -> r)
    selected

let pp_report ppf (r : report) =
  let note = if r.note = "" then "" else Fmt.str " (%s)" r.note in
  if passed r then Fmt.pf ppf "%-14s %6d cases  ok%s" r.oracle r.cases note
  else
    Fmt.pf ppf "%-14s %6d cases%s  %d FAILED@,%a" r.oracle r.cases note
      (List.length r.failures)
      (Fmt.list ~sep:Fmt.cut
         (fun ppf f -> Fmt.pf ppf "  case %d: %s" f.case f.detail))
      r.failures
