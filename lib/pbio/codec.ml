(* Compiled wire-codec plans.

   The interpretive codec (kept below as [Interp], the reference
   implementation) pattern-matches on [Ptype.t] for every field of every
   message.  This module is the wire-layer half of the paper's "dynamic
   code generation" substitution (DESIGN.md, S1): [compile_encode],
   [compile_decode] and [compile_morph] walk a format description once and
   emit a flat plan of specialised closures — per-endian primitive
   readers/writers, enum value<->case lookup tables instead of
   [List.find_opt], length-field references resolved to slot indices,
   [min_wire_size] precomputed per array element.  Encoders render
   through one domain-local scratch buffer.  Per message only direct
   calls remain.

   [compile_morph] goes one step further and fuses wire decoding of the
   sender's format into construction of the *receiver's* value layout:
   source fields the target drops are skipped on the wire (never
   materialised), matched fields decode straight into the target slot
   (through the [Convert] coercion when the types differ), and missing
   target fields take their defaults — one pass, no intermediate
   source-format value tree.  The fused plan is observationally identical
   to decode-then-convert; the morphcheck "codec" oracle enforces this
   differentially.

   A record is read in straight-line closures, as a hand-written decoder
   would read it.  A dropped value is skipped in pieces ([skip_pieces]):
   a record with no length slots of its own contributes its fields'
   pieces, adjacent fixed spans merge, and a span after a string merges
   into the string's skip, so an ECho member is one string then 10 bytes.
   A dropped list of such string-led elements is skipped in one loop
   ([skip_elems]), one iteration per element and no call, and every read's
   bounds check ([need]) inlines to a compare and a branch.  A
   nested record whose by-name map takes source fields in wire order
   ([ordered_record]) reads each target field with one reader that also
   skips the dropped fields around it, into a record allocated once.  One
   record builder ([record_of]) builds decoded and converted records
   alike.  The length slots of the record scope being read live in the
   cursor, so a reader is a one-argument closure (a two-argument call to
   an unknown closure goes through [caml_apply2]), and states of up to 4
   slots are array literals ([fresh]), not [caml_make_vect] calls.

   Each wire rule is stated once.  One record walker ([walk_record])
   serves every reader that keeps only some of a record's fields in two
   phases — a skip of a record with length slots, an element map's
   gather, a fused map's read into a state: the caller gives a step per
   kept field, and the walker skips each dropped one with a decode's
   checks, or reads it into the length slot a later array needs.  One
   count guard ([array_count]) checks every array count a compiled plan
   reads, and one array reader ([read_array]) builds the arrays that
   decode and fused conversion fill.  One per-endian slot accessor
   ([per_endian]) fills every cached plan under the cache lock.

   Hostile input discipline is inherited from the interpreter: every
   length is bounds-checked before allocation, unknown enum values reject
   the message (even when the field is skipped), and decoding failures
   raise [Decode_error], which the [Wire] wrappers turn into [Error].  A
   compiled plan accepts and rejects exactly what the interpreter does,
   with the same values and in the same order of checks; only a
   truncation error's text may differ, since a merged skip (within a
   record or across nested ones) names its whole span where the
   interpreter names the first missing field. *)

type endian = Little | Big

exception Encode_error of string
exception Decode_error of string

let encode_error fmt = Fmt.kstr (fun s -> raise (Encode_error s)) fmt
let decode_error fmt = Fmt.kstr (fun s -> raise (Decode_error s)) fmt

let header_size = 16
let magic = "PBIO"
let wire_version = 1

type header = {
  endian : endian;
  format_id : int;
  payload_len : int;
}

(* --- primitive writers ------------------------------------------------- *)

let int32_min = -0x8000_0000
let int32_max = 0x7fff_ffff
let uint32_max = 0xffff_ffff

let add_i32 endian buf n =
  if n < int32_min || n > int32_max then encode_error "int %d out of 32-bit range" n;
  let x = Int32.of_int n in
  match endian with
  | Little -> Buffer.add_int32_le buf x
  | Big -> Buffer.add_int32_be buf x

let add_u32 endian buf n =
  if n < 0 || n > uint32_max then encode_error "unsigned %d out of 32-bit range" n;
  let x = Int32.of_int (if n > int32_max then n - (uint32_max + 1) else n) in
  match endian with
  | Little -> Buffer.add_int32_le buf x
  | Big -> Buffer.add_int32_be buf x

let add_f64 endian buf x =
  let bits = Int64.bits_of_float x in
  match endian with
  | Little -> Buffer.add_int64_le buf bits
  | Big -> Buffer.add_int64_be buf bits

let set_u32 endian b off n =
  if n < 0 || n > uint32_max then encode_error "unsigned %d out of 32-bit range" n;
  let x = Int32.of_int (if n > int32_max then n - (uint32_max + 1) else n) in
  match endian with
  | Little -> Bytes.set_int32_le b off x
  | Big -> Bytes.set_int32_be b off x

(* Specialised writers for compiled plans: the endian branch is resolved
   when the plan is built, not per value. *)

let w_i32 = function
  | Little ->
    fun buf n ->
      if n < int32_min || n > int32_max then encode_error "int %d out of 32-bit range" n;
      Buffer.add_int32_le buf (Int32.of_int n)
  | Big ->
    fun buf n ->
      if n < int32_min || n > int32_max then encode_error "int %d out of 32-bit range" n;
      Buffer.add_int32_be buf (Int32.of_int n)

let w_u32 = function
  | Little ->
    fun buf n ->
      if n < 0 || n > uint32_max then encode_error "unsigned %d out of 32-bit range" n;
      Buffer.add_int32_le buf
        (Int32.of_int (if n > int32_max then n - (uint32_max + 1) else n))
  | Big ->
    fun buf n ->
      if n < 0 || n > uint32_max then encode_error "unsigned %d out of 32-bit range" n;
      Buffer.add_int32_be buf
        (Int32.of_int (if n > int32_max then n - (uint32_max + 1) else n))

let w_f64 = function
  | Little -> fun buf x -> Buffer.add_int64_le buf (Int64.bits_of_float x)
  | Big -> fun buf x -> Buffer.add_int64_be buf (Int64.bits_of_float x)

(* --- primitive readers ------------------------------------------------- *)

(* [lens] holds the length slots of the record scope a compiled plan is
   reading (the interpreter does not use it). *)
type cursor = {
  data : string;
  mutable pos : int;
  limit : int;
  mutable lens : Value.t array;
}

let no_lens : Value.t array = [||]

(* The bounds errors, out of line: a formatted raise would keep [need]
   and the string-skip rule from inlining. *)
let[@inline never] truncated cur n =
  decode_error "truncated message: need %d bytes at offset %d (limit %d)" n cur.pos cur.limit

let[@inline never] string_overrun len = decode_error "string length %d exceeds message" len

(* The bounds check of every read: a compare and a branch where it is
   called. *)
let[@inline] need cur n = if cur.pos + n > cur.limit then truncated cur n

let[@inline] skip cur n =
  need cur n;
  cur.pos <- cur.pos + n

let read_i32 endian cur =
  need cur 4;
  let x =
    match endian with
    | Little -> String.get_int32_le cur.data cur.pos
    | Big -> String.get_int32_be cur.data cur.pos
  in
  cur.pos <- cur.pos + 4;
  Int32.to_int x

let read_u32 endian cur =
  let n = read_i32 endian cur in
  if n < 0 then n + uint32_max + 1 else n

let read_f64 endian cur =
  need cur 8;
  let bits =
    match endian with
    | Little -> String.get_int64_le cur.data cur.pos
    | Big -> String.get_int64_be cur.data cur.pos
  in
  cur.pos <- cur.pos + 8;
  Int64.float_of_bits bits

let read_byte cur =
  need cur 1;
  let c = cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let read_bytes cur n =
  need cur n;
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

(* Endian-resolved readers for compiled plans. *)

let reader_i32 = function
  | Little ->
    fun cur ->
      need cur 4;
      let x = String.get_int32_le cur.data cur.pos in
      cur.pos <- cur.pos + 4;
      Int32.to_int x
  | Big ->
    fun cur ->
      need cur 4;
      let x = String.get_int32_be cur.data cur.pos in
      cur.pos <- cur.pos + 4;
      Int32.to_int x


(* --- enum lookup tables -------------------------------------------------- *)

(* Value -> case-name tables, memoised per enum description so the
   interpretive path shares them with compiled plans.  First binding wins,
   matching the [List.find_opt] the tables replace.  The memo is bounded:
   fuzzed meta-data can mint unlimited distinct enum types.  It is
   domain-local (a plain Hashtbl mutated on the decode hot path cannot be
   shared); each table itself is fully built before it is returned, so
   tables captured inside compiled plans are immutable and safe to share
   across domains. *)

let enum_tables_key :
  (Ptype.enum, (int, string) Hashtbl.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let enum_table (e : Ptype.enum) : (int, string) Hashtbl.t =
  let enum_tables = Domain.DLS.get enum_tables_key in
  match Hashtbl.find_opt enum_tables e with
  | Some t -> t
  | None ->
    if Hashtbl.length enum_tables >= 256 then Hashtbl.reset enum_tables;
    let t = Hashtbl.create (2 * List.length e.cases) in
    List.iter (fun (c, n) -> if not (Hashtbl.mem t n) then Hashtbl.add t n c) e.cases;
    Hashtbl.replace enum_tables e t;
    t

(* --- sizes ---------------------------------------------------------------- *)

(* Minimum wire footprint of one value of a type: used to reject corrupted
   length fields before allocating huge element arrays. *)
let rec min_wire_size (ty : Ptype.t) : int =
  match ty with
  | Ptype.Basic (Int | Uint | Enum _ | String) -> 4
  | Basic Float -> 8
  | Basic (Char | Bool) -> 1
  | Record r ->
    List.fold_left (fun acc (f : Ptype.field) -> acc + min_wire_size f.ftype) 0 r.fields
  | Array { elem; size = Fixed k } -> max k 0 * min_wire_size elem
  | Array { size = Length_field _; _ } -> 0

(* Per-decode-call memo so the interpretive path computes each element
   type's footprint once per message instead of once per nested array
   occurrence (physical identity is enough: type nodes are shared within
   one format description). *)
let min_wire_size_memo (memo : (Ptype.t * int) list ref) (ty : Ptype.t) : int =
  let rec find = function
    | [] -> None
    | (t, n) :: rest -> if t == ty then Some n else find rest
  in
  match find !memo with
  | Some n -> n
  | None ->
    let n = min_wire_size ty in
    memo := (ty, n) :: !memo;
    n

(* Exact wire span of a type when it is statically fixed, [None] when the
   span depends on the value (strings, variable arrays) or the type can
   reject bytes while being skipped (enums) or reject statically-invalid
   sizes (negative fixed arrays). *)
let rec fixed_span (ty : Ptype.t) : int option =
  match ty with
  | Ptype.Basic (Int | Uint) -> Some 4
  | Basic Float -> Some 8
  | Basic (Char | Bool) -> Some 1
  | Basic (Enum _ | String) -> None
  | Record r ->
    List.fold_left
      (fun acc (f : Ptype.field) ->
         match acc, fixed_span f.ftype with
         | Some a, Some b -> Some (a + b)
         | _ -> None)
      (Some 0) r.fields
  | Array { elem; size = Fixed k } ->
    if k < 0 then None else Option.map (fun m -> k * m) (fixed_span elem)
  | Array { size = Length_field _; _ } -> None

(* --- header ---------------------------------------------------------------- *)

let rec magic_from data i = i = 4 || (data.[i] = magic.[i] && magic_from data (i + 1))

let u32_at endian data off =
  let n =
    Int32.to_int
      (match endian with
       | Little -> String.get_int32_le data off
       | Big -> String.get_int32_be data off)
  in
  if n < 0 then n + uint32_max + 1 else n

(* In place: the header record is all a read allocates. *)
let read_header (data : string) : header =
  if String.length data < header_size then decode_error "message shorter than header";
  if not (magic_from data 0) then decode_error "bad magic";
  let endian =
    match data.[4] with
    | '\x00' -> Little
    | '\x01' -> Big
    | c -> decode_error "bad endian flag %C" c
  in
  let v = Char.code data.[5] in
  if v <> wire_version then decode_error "unsupported wire version %d" v;
  let format_id = u32_at endian data 8 in
  let payload_len = u32_at endian data 12 in
  if header_size + payload_len <> String.length data then
    decode_error "payload length %d does not match message size %d"
      payload_len (String.length data - header_size);
  { endian; format_id; payload_len }

(* --- observability ---------------------------------------------------------- *)

type metrics = {
  mon : bool;
  mreg : Obs.t;
  compiles : Obs.Counter.h;
  cache_hits : Obs.Counter.h;
  evictions : Obs.Counter.h;
  compile_ns : Obs.Histogram.h;
}

let make_metrics reg =
  {
    mon = Obs.enabled reg;
    mreg = reg;
    compiles = Obs.Counter.make reg "codec.plan_compiles";
    cache_hits = Obs.Counter.make reg "codec.plan_cache_hits";
    evictions = Obs.Counter.make reg "codec.plan_evictions";
    compile_ns = Obs.Histogram.make reg ~unit_:"ns" "codec.compile_ns";
  }

(* --- interpretive reference implementation ----------------------------------- *)

module Interp = struct
  let rec encode_type endian buf (ty : Ptype.t) (v : Value.t) : unit =
    match ty, v with
    | Ptype.Basic Int, Value.Int n -> add_i32 endian buf n
    | Basic Uint, Uint n -> add_u32 endian buf n
    | Basic Float, Float x -> add_f64 endian buf x
    | Basic Char, Char c -> Buffer.add_char buf c
    | Basic Bool, Bool b -> Buffer.add_char buf (if b then '\x01' else '\x00')
    | Basic (Enum _), Enum (_, n) -> add_i32 endian buf n
    | Basic String, String s ->
      add_u32 endian buf (String.length s);
      Buffer.add_string buf s
    | Record r, (Record _ as v) -> encode_record endian buf r v
    | Array { elem; size }, (Array _ as v) ->
      let n = Value.array_len v in
      (match size with
       | Fixed k when k <> n -> encode_error "fixed array expects %d elements, value has %d" k n
       | Fixed _ | Length_field _ -> ());
      for i = 0 to n - 1 do
        encode_type endian buf elem (Value.array_get v i)
      done
    | _, _ ->
      encode_error "value %s does not match field type %a"
        (Value.to_string v) Ptype.pp_type ty

  and encode_record endian buf (r : Ptype.record) (v : Value.t) : unit =
    let es = Value.entries v in
    if Array.length es <> List.length r.fields then
      encode_error "record %s: value has %d fields, format declares %d"
        r.rname (Array.length es) (List.length r.fields);
    List.iteri
      (fun i (f : Ptype.field) ->
         let e = es.(i) in
         if e.Value.name <> f.fname then
           encode_error "record %s: field %d is %S in value but %S in format"
             r.rname i e.Value.name f.fname;
         (* Enforce the wire invariant: a variable array's length field holds
            the actual element count, since no count travels on the wire. *)
         (match f.ftype with
          | Array { size = Length_field lf; _ } ->
            let declared = Value.to_int (Value.get_field v lf) in
            let actual = Value.array_len e.Value.v in
            if declared <> actual then
              encode_error
                "record %s: length field %S = %d but array %S has %d elements \
                 (call Value.sync_lengths before encoding)"
                r.rname lf declared f.fname actual
          | _ -> ());
         encode_type endian buf f.ftype e.Value.v)
      r.fields

  let encode_payload ~endian (r : Ptype.record) (v : Value.t) : string =
    let buf = Buffer.create 256 in
    encode_record endian buf r v;
    Buffer.contents buf

  let encode_message ~endian ~format_id (r : Ptype.record) (v : Value.t) : string =
    let payload = encode_payload ~endian r v in
    let buf = Buffer.create (header_size + String.length payload) in
    Buffer.add_string buf magic;
    Buffer.add_char buf (match endian with Little -> '\x00' | Big -> '\x01');
    Buffer.add_char buf (Char.chr wire_version);
    Buffer.add_string buf "\x00\x00";
    add_u32 endian buf format_id;
    add_u32 endian buf (String.length payload);
    Buffer.add_string buf payload;
    Buffer.contents buf

  let rec decode_type endian cur (ty : Ptype.t) ~(length_of : string -> int)
      ~(msize : (Ptype.t * int) list ref) : Value.t =
    match ty with
    | Ptype.Basic Int -> Value.Int (read_i32 endian cur)
    | Basic Uint -> Value.Uint (read_u32 endian cur)
    | Basic Float -> Value.Float (read_f64 endian cur)
    | Basic Char -> Value.Char (read_byte cur)
    | Basic Bool -> Value.Bool (read_byte cur <> '\x00')
    | Basic (Enum e) ->
      let n = read_i32 endian cur in
      (match Hashtbl.find_opt (enum_table e) n with
       | Some case -> Value.Enum (case, n)
       | None -> decode_error "enum %s: unknown value %d" e.ename n)
    | Basic String ->
      let n = read_u32 endian cur in
      if n > cur.limit - cur.pos then string_overrun n;
      Value.String (read_bytes cur n)
    | Record r -> decode_record_inner endian cur r ~msize
    | Array { elem; size } ->
      (* Both size sources are untrusted here: length fields come off the wire
         and fixed sizes may come from a hostile format description (shipped
         meta-data), so both are bounds-checked before any allocation. *)
      let check_len ~what n =
        if n < 0 then decode_error "negative array length %d for %s" n what;
        let remaining = cur.limit - cur.pos in
        let m = min_wire_size_memo msize elem in
        if (m > 0 && n > remaining / m) || (m = 0 && n > cur.limit) then
          decode_error "array length %d for %s exceeds message size" n what;
        n
      in
      let n =
        match size with
        | Fixed k -> check_len ~what:"fixed-size array" k
        | Length_field name -> check_len ~what:(Printf.sprintf "%S" name) (length_of name)
      in
      let items = Array.init n (fun _ -> decode_type endian cur elem ~length_of ~msize) in
      Value.Array { items; len = n }

  and decode_record_inner endian cur (r : Ptype.record)
      ~(msize : (Ptype.t * int) list ref) : Value.t =
    let es =
      Array.of_list
        (List.map (fun (f : Ptype.field) -> { Value.name = f.fname; v = Value.Int 0 }) r.fields)
    in
    let length_of name =
      (* Length fields are declared before the arrays that use them (enforced
         by Ptype.validate), so they are already decoded here. *)
      match Value.field_index es name with
      | Some i -> Value.to_int es.(i).Value.v
      | None -> decode_error "record %s: missing length field %S" r.rname name
    in
    List.iteri
      (fun i (f : Ptype.field) ->
         es.(i).Value.v <- decode_type endian cur f.ftype ~length_of ~msize)
      r.fields;
    Value.Record es

  let decode_payload ~endian ?(pos = 0) (r : Ptype.record) (data : string) : Value.t =
    let msize = ref [] in
    let cur = { data; pos; limit = String.length data; lens = no_lens } in
    let v = decode_record_inner endian cur r ~msize in
    if cur.pos <> cur.limit then
      decode_error "trailing garbage: %d bytes left after record %s"
        (cur.limit - cur.pos) r.rname;
    v
end

(* --- compiled encode plans ----------------------------------------------------- *)

type encoder = {
  eendian : endian;
  erun : Buffer.t -> Value.t -> unit;
}

(* Scratch buffer reused between messages: the plan never runs user
   code, so the buffer cannot be re-entered while an encode is in
   flight.  It is domain-local rather than per-encoder so one compiled
   encoder value can be shared across domains — every other encoder
   field is immutable. *)
let scratch_key = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let rec comp_encode_type endian (ty : Ptype.t) : Buffer.t -> Value.t -> unit =
  let mismatch v =
    encode_error "value %s does not match field type %a" (Value.to_string v) Ptype.pp_type ty
  in
  match ty with
  | Ptype.Basic Int ->
    let w = w_i32 endian in
    (fun buf v -> match v with Value.Int n -> w buf n | v -> mismatch v)
  | Basic Uint ->
    let w = w_u32 endian in
    (fun buf v -> match v with Value.Uint n -> w buf n | v -> mismatch v)
  | Basic Float ->
    let w = w_f64 endian in
    (fun buf v -> match v with Value.Float x -> w buf x | v -> mismatch v)
  | Basic Char ->
    (fun buf v -> match v with Value.Char c -> Buffer.add_char buf c | v -> mismatch v)
  | Basic Bool ->
    (fun buf v ->
       match v with
       | Value.Bool b -> Buffer.add_char buf (if b then '\x01' else '\x00')
       | v -> mismatch v)
  | Basic (Enum _) ->
    let w = w_i32 endian in
    (fun buf v -> match v with Value.Enum (_, n) -> w buf n | v -> mismatch v)
  | Basic String ->
    let w = w_u32 endian in
    (fun buf v ->
       match v with
       | Value.String s ->
         w buf (String.length s);
         Buffer.add_string buf s
       | v -> mismatch v)
  | Record r -> comp_encode_record endian r
  | Array { elem; size } ->
    let we = comp_encode_type endian elem in
    (match size with
     | Fixed k ->
       fun buf v ->
         (match v with
          | Value.Array d ->
            if k <> d.Value.len then
              encode_error "fixed array expects %d elements, value has %d" k d.Value.len;
            for i = 0 to d.Value.len - 1 do we buf d.Value.items.(i) done
          | v -> mismatch v)
     | Length_field _ ->
       fun buf v ->
         (match v with
          | Value.Array d -> for i = 0 to d.Value.len - 1 do we buf d.Value.items.(i) done
          | v -> mismatch v))

and comp_encode_record endian (r : Ptype.record) : Buffer.t -> Value.t -> unit =
  let fields = Array.of_list r.fields in
  let nf = Array.length fields in
  let steps =
    Array.map
      (fun (f : Ptype.field) ->
         let w = comp_encode_type endian f.ftype in
         let lcheck =
           match f.ftype with
           | Ptype.Array { size = Ptype.Length_field lf; _ } -> Some (lf, Ptype.field_index r lf)
           | _ -> None
         in
         (f.fname, lcheck, w))
      fields
  in
  fun buf v ->
    match v with
    | Value.Record es ->
      if Array.length es <> nf then
        encode_error "record %s: value has %d fields, format declares %d"
          r.rname (Array.length es) nf;
      for i = 0 to nf - 1 do
        let name, lcheck, w = steps.(i) in
        let e = es.(i) in
        if e.Value.name <> name then
          encode_error "record %s: field %d is %S in value but %S in format"
            r.rname i e.Value.name name;
        (match lcheck with
         | None -> ()
         | Some (lf, j) ->
           let declared =
             match j with
             | Some j when es.(j).Value.name = lf -> Value.to_int es.(j).Value.v
             | Some _ | None -> Value.to_int (Value.get_field v lf)
           in
           let actual = Value.array_len e.Value.v in
           if declared <> actual then
             encode_error
               "record %s: length field %S = %d but array %S has %d elements \
                (call Value.sync_lengths before encoding)"
               r.rname lf declared name actual);
        w buf e.Value.v
      done
    | v ->
      encode_error "value %s does not match field type %a"
        (Value.to_string v) Ptype.pp_type (Ptype.Record r)

let compile_encode ~endian (r : Ptype.record) : encoder =
  { eendian = endian; erun = comp_encode_record endian r }

let encode_payload (enc : encoder) (v : Value.t) : string =
  let scratch = Domain.DLS.get scratch_key in
  Buffer.clear scratch;
  enc.erun scratch v;
  Buffer.contents scratch

let encode_message (enc : encoder) ~format_id (v : Value.t) : string =
  let scratch = Domain.DLS.get scratch_key in
  Buffer.clear scratch;
  enc.erun scratch v;
  let plen = Buffer.length scratch in
  let b = Bytes.create (header_size + plen) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (match enc.eendian with Little -> '\x00' | Big -> '\x01');
  Bytes.set b 5 (Char.chr wire_version);
  Bytes.set b 6 '\x00';
  Bytes.set b 7 '\x00';
  set_u32 enc.eendian b 8 format_id;
  set_u32 enc.eendian b 12 plen;
  Buffer.blit scratch 0 b header_size plen;
  Bytes.unsafe_to_string b

(* --- compiled decode plans ------------------------------------------------------ *)

(* A reader decodes one value at the cursor, within the record scope
   whose length slots the cursor holds. *)
type reader = cursor -> Value.t

type decoder = {
  dfmt : Ptype.record;
  drun : reader;
}

(* One record scope: which fields back length slots.  A slot is assigned to
   every name referenced by a [Length_field] in this scope (arrays nest
   through arrays but not through records — an inner record resolves its
   lengths against its own fields, exactly like the interpreter's
   [length_of]).  Slot k mirrors the first field with that name, matching
   [Value.field_index]'s first-match rule on duplicate names. *)
let record_layout (r : Ptype.record) =
  let fields = Array.of_list r.fields in
  let nf = Array.length fields in
  let rec refs acc (ty : Ptype.t) =
    match ty with
    | Ptype.Basic _ | Record _ -> acc
    | Array { elem; size } ->
      let acc =
        match size with
        | Ptype.Length_field nm -> if List.mem nm acc then acc else nm :: acc
        | Fixed _ -> acc
      in
      refs acc elem
  in
  let referenced =
    Array.fold_left (fun acc (f : Ptype.field) -> refs acc f.ftype) [] fields
  in
  let slots =
    List.mapi (fun k (nm, i) -> (nm, i, k))
      (List.filter_map
         (fun nm -> Option.map (fun i -> (nm, i)) (Ptype.field_index r nm))
         referenced)
  in
  let nslots = List.length slots in
  let slot_for_field i =
    List.find_map (fun (_, j, k) -> if j = i then Some k else None) slots
  in
  let slot_for_name nm =
    List.find_map (fun (n, _, k) -> if n = nm then Some k else None) slots
  in
  (fields, nf, nslots, slot_for_field, slot_for_name)

(* The count guard: every compiled reader of an array (decode, skip, a
   fused conversion, an element map) takes the element count from here
   before it reads, skips or allocates one element.  Both size sources are
   untrusted: length fields come off the wire and fixed sizes may come
   from a hostile format description (shipped meta-data).  A length field
   resolves to its slot in the cursor's [lens]; slots start as [Int 0],
   reproducing the interpreter's placeholder semantics when a hostile
   format references a not-yet-decoded field, and a name the scope lacks
   fails when its array is reached, as the interpreter's [length_of]
   does. *)
let array_count (r : Ptype.record) slot_for_name ({ elem; size } : Ptype.array_spec) :
  cursor -> int =
  let m = min_wire_size elem in
  let guard what cur n =
    if n < 0 then decode_error "negative array length %d for %s" n what;
    let remaining = cur.limit - cur.pos in
    if (m > 0 && n > remaining / m) || (m = 0 && n > cur.limit) then
      decode_error "array length %d for %s exceeds message size" n what;
    n
  in
  match size with
  | Ptype.Fixed k -> fun cur -> guard "fixed-size array" cur k
  | Length_field nm ->
    (match slot_for_name nm with
     | Some k ->
       let what = Printf.sprintf "%S" nm in
       fun cur -> guard what cur (Value.to_int cur.lens.(k))
     | None -> fun _ -> decode_error "record %s: missing length field %S" r.rname nm)

(* The array reader of decode and fused conversion: the count guard, then
   [elem] once per element. *)
let read_array (count : cursor -> int) (elem : reader) : reader =
  fun cur ->
    let n = count cur in
    Value.Array { items = Array.init n (fun _ -> elem cur); len = n }

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let zero = Value.Int 0

(* A fresh state of [n] slots: a scope's length slots, a fused map's
   state, an element's row.  Up to 4 slots it is an array literal,
   allocated inline; [Array.make] is a runtime call ([caml_make_vect]). *)
let[@inline] fresh n : Value.t array =
  match n with
  | 0 -> no_lens
  | 1 -> [| zero |]
  | 2 -> [| zero; zero |]
  | 3 -> [| zero; zero; zero |]
  | 4 -> [| zero; zero; zero; zero |]
  | n -> Array.make n zero

let hole = { Value.name = ""; v = zero }

(* The one record builder: a record of fields [names], field [j] the
   value of [rd.(j) a] ([a] a cursor, or a state to assemble from).
   Each field is bound with [let], in order, so fields read off the wire
   are read in wire order, and the record is allocated once with its
   final values (initializing stores, no placeholder values). *)
let record_of (names : string array) (rd : ('a -> Value.t) array) : 'a -> Value.t =
  match rd, names with
  | [| r0 |], [| n0 |] -> fun a -> Value.Record [| { Value.name = n0; v = r0 a } |]
  | [| r0; r1 |], [| n0; n1 |] ->
    fun a ->
      let v0 = r0 a in
      let v1 = r1 a in
      Value.Record [| { Value.name = n0; v = v0 }; { Value.name = n1; v = v1 } |]
  | [| r0; r1; r2 |], [| n0; n1; n2 |] ->
    fun a ->
      let v0 = r0 a in
      let v1 = r1 a in
      let v2 = r2 a in
      Value.Record
        [| { Value.name = n0; v = v0 }; { Value.name = n1; v = v1 };
           { Value.name = n2; v = v2 } |]
  | [| r0; r1; r2; r3 |], [| n0; n1; n2; n3 |] ->
    fun a ->
      let v0 = r0 a in
      let v1 = r1 a in
      let v2 = r2 a in
      let v3 = r3 a in
      Value.Record
        [| { Value.name = n0; v = v0 }; { Value.name = n1; v = v1 };
           { Value.name = n2; v = v2 }; { Value.name = n3; v = v3 } |]
  | [| r0; r1; r2; r3; r4 |], [| n0; n1; n2; n3; n4 |] ->
    fun a ->
      let v0 = r0 a in
      let v1 = r1 a in
      let v2 = r2 a in
      let v3 = r3 a in
      let v4 = r4 a in
      Value.Record
        [| { Value.name = n0; v = v0 }; { Value.name = n1; v = v1 };
           { Value.name = n2; v = v2 }; { Value.name = n3; v = v3 };
           { Value.name = n4; v = v4 } |]
  | _ ->
    let n = Array.length names in
    fun a ->
      let es = Array.make n hole in
      for j = 0 to n - 1 do
        es.(j) <- { Value.name = names.(j); v = rd.(j) a }
      done;
      Value.Record es

(* A reader of one record scope.  With length slots of its own it reads
   with fresh ones in the cursor, then gives the cursor back its caller's;
   without, it leaves its caller's there, which none of its fields reads
   or writes (a length field resolves in its own record only), and costs
   no closure call of its own. *)
let scoped nslots (rd : reader) : reader =
  if nslots = 0 then rd
  else
    fun cur ->
      let outer = cur.lens in
      cur.lens <- fresh nslots;
      let v = rd cur in
      cur.lens <- outer;
      v

(* Step closures inline the primitive read (bounds check, byte extraction,
   cursor advance) rather than calling the shared readers: one fewer
   indirect call per field, which is most of the interpreter's remaining
   per-field overhead once dispatch is gone. *)
let rec comp_decode_type endian count (ty : Ptype.t) : reader =
  match ty with
  | Ptype.Basic Int ->
    (match endian with
     | Little ->
       fun cur ->
         need cur 4;
         let x = String.get_int32_le cur.data cur.pos in
         cur.pos <- cur.pos + 4;
         Value.Int (Int32.to_int x)
     | Big ->
       fun cur ->
         need cur 4;
         let x = String.get_int32_be cur.data cur.pos in
         cur.pos <- cur.pos + 4;
         Value.Int (Int32.to_int x))
  | Basic Uint ->
    (match endian with
     | Little ->
       fun cur ->
         need cur 4;
         let x = Int32.to_int (String.get_int32_le cur.data cur.pos) in
         cur.pos <- cur.pos + 4;
         Value.Uint (if x < 0 then x + uint32_max + 1 else x)
     | Big ->
       fun cur ->
         need cur 4;
         let x = Int32.to_int (String.get_int32_be cur.data cur.pos) in
         cur.pos <- cur.pos + 4;
         Value.Uint (if x < 0 then x + uint32_max + 1 else x))
  | Basic Float ->
    (match endian with
     | Little ->
       fun cur ->
         need cur 8;
         let bits = String.get_int64_le cur.data cur.pos in
         cur.pos <- cur.pos + 8;
         Value.Float (Int64.float_of_bits bits)
     | Big ->
       fun cur ->
         need cur 8;
         let bits = String.get_int64_be cur.data cur.pos in
         cur.pos <- cur.pos + 8;
         Value.Float (Int64.float_of_bits bits))
  | Basic Char ->
    fun cur ->
      need cur 1;
      let c = String.unsafe_get cur.data cur.pos in
      cur.pos <- cur.pos + 1;
      Value.Char c
  | Basic Bool ->
    fun cur ->
      need cur 1;
      let c = String.unsafe_get cur.data cur.pos in
      cur.pos <- cur.pos + 1;
      if c <> '\x00' then vtrue else vfalse
  | Basic (Enum e) ->
    let rd = reader_i32 endian in
    let tbl = enum_table e in
    let ename = e.ename in
    fun cur ->
      let n = rd cur in
      (match Hashtbl.find_opt tbl n with
       | Some case -> Value.Enum (case, n)
       | None -> decode_error "enum %s: unknown value %d" ename n)
  | Basic String ->
    let rd = reader_i32 endian in
    fun cur ->
      let n0 = rd cur in
      let n = if n0 < 0 then n0 + uint32_max + 1 else n0 in
      if n > cur.limit - cur.pos then string_overrun n;
      let s = String.sub cur.data cur.pos n in
      cur.pos <- cur.pos + n;
      Value.String s
  | Record r -> comp_decode_record endian r
  | Array a -> read_array (count a) (comp_decode_type endian count a.elem)

and comp_decode_record endian (r : Ptype.record) : reader =
  let fields, nf, nslots, slot_for_field, slot_for_name = record_layout r in
  let count = array_count r slot_for_name in
  let names = Array.map (fun (f : Ptype.field) -> f.fname) fields in
  let steps =
    Array.init nf (fun i ->
        let base = comp_decode_type endian count fields.(i).Ptype.ftype in
        match slot_for_field i with
        | None -> base
        | Some k ->
          fun cur ->
            let v = base cur in
            cur.lens.(k) <- v;
            v)
  in
  scoped nslots (record_of names steps)

(* --- the record walker ------------------------------------------------------------ *)

(* A walk step reads one field of a record, or a run of dropped ones: it
   takes the cursor and the state its caller fills (an element's row, a
   fused map's state array; nothing when skipping). *)
type walk_step = cursor -> Value.t array -> unit

(* The pieces a dropped value is skipped in.  [Span n] is [n] bytes
   skipped unread; [Str n] a length-prefixed string, then [n] bytes.
   Adjacent spans merge, and a span merges into the string before it, so
   each run becomes one step: one closure call, one bounds check per
   string and one for the fixed bytes around it. *)
type piece =
  | Span of int
  | Str of int
  | Step of walk_step

let rec coalesce = function
  | Span a :: Span b :: rest -> coalesce (Span (a + b) :: rest)
  | Str a :: Span b :: rest -> coalesce (Str (a + b) :: rest)
  | s :: rest -> s :: coalesce rest
  | [] -> []

(* The string-skip rule, stated once: at [pos], a string's 32-bit length
   prefix, the string, then [n] fixed bytes, each checked in bounds as a
   decode checks it; the position after them.  [cur.pos] is written only
   before a raise, so that a caller may keep the position in a local.
   Called with a constant [endian], the byte order resolves where it is
   inlined. *)
let[@inline] skip_str endian cur pos n =
  if pos + 4 > cur.limit then begin
    cur.pos <- pos;
    truncated cur 4
  end;
  let s =
    Int32.to_int
      (match endian with
       | Little -> String.get_int32_le cur.data pos
       | Big -> String.get_int32_be cur.data pos)
  in
  let pos = pos + 4 in
  let len = if s < 0 then s + uint32_max + 1 else s in
  if len > cur.limit - pos then begin
    cur.pos <- pos;
    string_overrun len
  end;
  let pos = pos + len in
  if pos + n > cur.limit then begin
    cur.pos <- pos;
    truncated cur n
  end;
  pos + n

(* [c] elements, each a string then [n] fixed bytes, skipped in one loop
   with the position in a local: no call per element. *)
let[@inline] skip_strs endian cur c n =
  let pos = ref cur.pos in
  for _ = 1 to c do
    pos := skip_str endian cur !pos n
  done;
  cur.pos <- !pos

(* The one place a piece becomes a step: a fresh closure over [n], since
   a partial application of a shared skip function would cost an extra
   indirect call on every element. *)
let step_of endian = function
  | Span n -> fun cur _ -> skip cur n
  | Str n ->
    (match endian with
     | Little -> fun cur _ -> cur.pos <- skip_str Little cur cur.pos n
     | Big -> fun cur _ -> cur.pos <- skip_str Big cur cur.pos n)
  | Step f -> f

let steps_of endian pieces = Array.of_list (List.map (step_of endian) (coalesce pieces))

type walk = {
  nslots : int;
  steps : walk_step array;
}

let[@inline] run_steps (steps : walk_step array) cur st =
  for i = 0 to Array.length steps - 1 do
    steps.(i) cur st
  done

(* Run a walk over one record, in its own length slots when it has any.
   Inlined where it is called, so a walk costs its steps' calls and no
   call of its own. *)
let[@inline] walk w cur st =
  if w.nslots = 0 then run_steps w.steps cur st
  else begin
    let outer = cur.lens in
    cur.lens <- fresh w.nslots;
    run_steps w.steps cur st;
    cur.lens <- outer
  end

(* One step that runs [pieces]: an ECho member ({info{host; port}; ID;
   is_source; is_sink}) is one string then 10 bytes, one call. *)
let skip_step endian pieces : walk_step =
  match steps_of endian pieces with
  | [| s |] -> s
  | ss -> fun cur st -> run_steps ss cur st

(* The pieces that skip a value on the wire without materialising it,
   enforcing the same guards as decoding (bounds, enum validity), so a
   fused plan accepts and rejects exactly the messages the staged path
   does.  A record with no length slots of its own contributes its
   fields' pieces, so fixed spans merge across record boundaries; enum
   checks, arrays and records with length slots keep their own steps. *)
let rec skip_pieces endian count (ty : Ptype.t) : piece list =
  match fixed_span ty, ty with
  | Some k, _ -> [ Span k ]
  | None, Basic (Enum e) ->
    let rd = reader_i32 endian in
    let tbl = enum_table e in
    let ename = e.ename in
    [ Step
        (fun cur _ ->
           let n = rd cur in
           if not (Hashtbl.mem tbl n) then decode_error "enum %s: unknown value %d" ename n) ]
  | None, Basic _ -> [ Str 0 ] (* a string: every other basic type has a fixed span *)
  | None, Record r ->
    let fields, _, nslots, _, slot_for_name = record_layout r in
    if nslots = 0 then begin
      let count = array_count r slot_for_name in
      List.concat_map (fun (f : Ptype.field) -> skip_pieces endian count f.ftype)
        (Array.to_list fields)
    end
    else begin
      let w = walk_record endian r (fun _ _ _ _ -> None) in
      [ Step (fun cur st -> walk w cur st) ]
    end
  | None, Array a ->
    let n_of = count a and skip_n = skip_elems endian count a.elem in
    [ Step (fun cur _ -> skip_n cur (n_of cur)) ]

(* Skip [c] elements of type [elem], their count already guarded: fixed
   ones in one span; string-led ones (pieces a lone [Str n], as an ECho
   member) in one loop, written once per byte order; any other shape by
   its own step, once per element. *)
and skip_elems endian count (elem : Ptype.t) : cursor -> int -> unit =
  match fixed_span elem with
  | Some k -> fun cur c -> skip cur (c * k)
  | None ->
    (match coalesce (skip_pieces endian count elem), endian with
     | [ Str n ], Little -> fun cur c -> skip_strs Little cur c n
     | [ Str n ], Big -> fun cur c -> skip_strs Big cur c n
     | pieces, _ ->
       let eskip = skip_step endian pieces in
       fun cur c ->
         for _ = 1 to c do
           eskip cur no_lens
         done)

(* A dropped field of a record scope: still read into its length slot
   [k] when a later array sizes from it, skipped otherwise. *)
and drop_pieces endian count (ty : Ptype.t) (slot : int option) : piece list =
  match slot with
  | Some k ->
    let dec = comp_decode_type endian count ty in
    [ Step (fun cur _ -> cur.lens.(k) <- dec cur) ]
  | None -> skip_pieces endian count ty

(* The record walker: the steps that go through one record of [r] field
   by field, shared by every reader that keeps only some fields in two
   phases (a skip of a record with length slots, an element map's
   gather, a fused map's read).  [keep count i ty slot] is the step of
   field [i] when the caller reads it ([count] resolves the scope's
   array counts, [slot] is the length slot the field fills when a later
   array sizes from it), [None] when the caller drops it.  A dropped
   field becomes its [drop_pieces], merged with its neighbours. *)
and walk_record endian (r : Ptype.record) keep : walk =
  let fields, nf, nslots, slot_for_field, slot_for_name = record_layout r in
  let count = array_count r slot_for_name in
  let pieces i =
    let ty = fields.(i).Ptype.ftype and slot = slot_for_field i in
    match keep count i ty slot with
    | Some step -> [ Step step ]
    | None -> drop_pieces endian count ty slot
  in
  { nslots; steps = steps_of endian (List.concat (List.init nf pieces)) }

(* A kept field's step: decode it into [st.(p)], and into its length slot
   when a later array sizes from it. *)
let store (dec : reader) p = function
  | None -> fun cur st -> st.(p) <- dec cur
  | Some k ->
    fun cur st ->
      let v = dec cur in
      cur.lens.(k) <- v;
      st.(p) <- v

let compile_decode ~endian (r : Ptype.record) : decoder =
  { dfmt = r; drun = comp_decode_record endian r }

let decode_payload (d : decoder) ?(pos = 0) (data : string) : Value.t =
  let cur = { data; pos; limit = String.length data; lens = no_lens } in
  let v = d.drun cur in
  if cur.pos <> cur.limit then
    decode_error "trailing garbage: %d bytes left after record %s"
      (cur.limit - cur.pos) d.dfmt.Ptype.rname;
  v

(* --- fused decode->morph plans ---------------------------------------------------- *)

type step =
  | Coerce of Ptype.t * Coerce.t
  | Convert of Ptype.t * Ptype.t

type slot =
  | Take of int * step list
  | Const of Value.t
  | Each of each

and each = {
  array : int;
  guard : (int * step list) option;
  elem : slot array;
}

type field_map = {
  slots : slot array;
  checks : (int * step list) list;
}

type checked = {
  cfrom : Ptype.record;
  cinto : Ptype.record;
  cmap : field_map;
}

(* Every rule a map must obey for [comp_map_record] to compile it, in one
   place: one slot per target field; every field a slot, a check or an
   element map reads exists; every [Convert] step converts; an element map
   reads a source array of records into a target array of records, one
   slot per target element field, with no step into an enum (so it cannot
   fail) and no element map inside. *)
let check_map ~(from_ : Ptype.record) ~(into : Ptype.record) (map : field_map) :
  (checked, string) result =
  let exception Refused of string in
  let refuse fmt = Fmt.kstr (fun s -> raise (Refused s)) fmt in
  let rec steps_fit ~elem = function
    | [] -> ()
    | Convert (s, t) :: _ when not (Convert.convertible s t) ->
      refuse "a Convert step from %a to %a does not convert" Ptype.pp_type s Ptype.pp_type t
    | Coerce (_, Coerce.To_enum _) :: _ when elem -> refuse "an element map coerces into an enum"
    | (Coerce _ | Convert _) :: rest -> steps_fit ~elem rest
  in
  (* field [i] of a record of [n] fields, through [steps] *)
  let read n ~elem i steps =
    if i < 0 || i >= n then refuse "a map reads no field %d" i;
    steps_fit ~elem steps
  in
  (* the number of fields of an array's record elements *)
  let records what = function
    | Ptype.Array { elem = Record r; _ } -> List.length r.fields
    | Basic _ | Record _ | Array _ -> refuse "an element map %s" what
  in
  let nf = List.length from_.fields in
  let slot (f : Ptype.field) = function
    | Take (i, steps) -> read nf ~elem:false i steps
    | Const _ -> ()
    | Each e ->
      read nf ~elem:false e.array [];
      let ne =
        records "reads a source array of no records" (List.nth from_.fields e.array).ftype
      in
      let nt = records "fills a target array of no records" f.ftype in
      if Array.length e.elem <> nt then
        refuse "an element map has %d slots for %d fields" (Array.length e.elem) nt;
      Option.iter (fun (p, steps) -> read ne ~elem:true p steps) e.guard;
      Array.iter
        (function
          | Take (g, steps) -> read ne ~elem:true g steps
          | Const _ -> ()
          | Each _ -> refuse "an element map nests an element map")
        e.elem
  in
  match
    if Array.length map.slots <> List.length into.fields then
      refuse "a map has %d slots for %d fields" (Array.length map.slots)
        (List.length into.fields);
    List.iteri (fun j f -> slot f map.slots.(j)) into.fields;
    List.iter (fun (i, steps) -> read nf ~elem:false i steps) map.checks
  with
  | () -> Ok { cfrom = from_; cinto = into; cmap = map }
  | exception Refused why -> Error why

type morpher = {
  mfrom : Ptype.record;
  mread : cursor -> Value.t array;
  (* consumes the payload; what it returns feeds [mbuild] *)
  mbuild : Value.t array -> Value.t;
  (* runs the map's checks and coercions, assembles and syncs the target:
     only once the whole message has decoded *)
}

(* Convert's rules as a map: each target field from the first source field
   of its name, through one structural conversion when the types differ;
   the target's default when no field has the name or the types cannot
   convert. *)
let by_name ~(from_ : Ptype.record) ~(into : Ptype.record) : field_map =
  let src = Array.of_list from_.fields in
  let slot (f : Ptype.field) =
    match Ptype.field_index from_ f.fname with
    | Some i when Ptype.equal_type src.(i).Ptype.ftype f.ftype -> Take (i, [])
    | Some i when Convert.convertible src.(i).Ptype.ftype f.ftype ->
      Take (i, [ Convert (src.(i).Ptype.ftype, f.ftype) ])
    | Some _ | None -> Const (Convert.field_default f ())
  in
  { slots = Array.of_list (List.map slot into.fields); checks = [] }

let compile_step = function
  | Coerce (from, co) -> Coerce.compile ~from co
  | Convert (s, t) ->
    (match Convert.compile_type s t with Some conv -> conv | None -> assert false)

let compile_steps (steps : step list) : Value.t -> Value.t =
  match List.map compile_step steps with
  | [] -> Fun.id
  | [ f ] -> f
  | [ f; g ] -> fun v -> g (f v)
  | f :: rest -> List.fold_left (fun acc g v -> g (acc v)) f rest

(* A constant field, copied per message when mutable; it reads nothing,
   so it takes the place of a reader or of a state getter alike. *)
let const_of (v : Value.t) : 'a -> Value.t =
  match v with
  | Record _ | Array _ -> fun _ -> Value.copy v
  | Int _ | Uint _ | Float _ | Char _ | Bool _ | Enum _ | String _ -> fun _ -> v

(* Read one record off the wire into [row], by field position: the fields
   [want] marks are decoded, the walker drops the rest. *)
let comp_gather endian (r : Ptype.record) (want : bool array) : cursor -> Value.t array -> unit =
  let fields, nf, nslots, _, slot_for_name = record_layout r in
  if nslots = 0 && Array.for_all Fun.id want then begin
    (* every field, none sizing another: one decoder call each, a closure
       call per field fewer than the walker's steps (Fig. 5's elements take
       this path, for 3-4% more channel-ecode messages) *)
    let count = array_count r slot_for_name in
    let decs = Array.map (fun (f : Ptype.field) -> comp_decode_type endian count f.ftype) fields in
    fun cur row ->
      for g = 0 to nf - 1 do
        row.(g) <- decs.(g) cur
      done
  end
  else begin
    let w =
      walk_record endian r (fun count g ty slot ->
          if want.(g) then Some (store (comp_decode_type endian count ty) g slot) else None)
    in
    fun cur row -> walk w cur row
  end

(* The read step of a source array of type [sty] that element maps take,
   one element at a time.  [takers] are the maps with their target
   position and target element record, in target order.  Each element's
   fields that a map or guard reads are gathered into a row, the rest
   skipped with a decode's checks; then every map whose guard holds
   appends one element built from the row.  The first reader of a record
   or array field takes the decoded value and every later one a copy, as
   Ecode's assignment copies.  With [raw] >= 0 the array is also kept
   whole at that state slot, and in length slot [lens_k], for the field's
   other uses; its elements own the row, so every map copies.  No guard
   or step can fail: a checked element map coerces into no enum. *)
let comp_each endian count (sty : Ptype.t) (takers : (int * Ptype.record * each) list) ~raw
    ~lens_k : walk_step =
  let a, er =
    match sty with
    | Ptype.Array ({ elem = Record er; _ } as a) -> (a, er)
    | Basic _ | Record _ | Array _ -> assert false
  in
  let efields = Array.of_list er.fields in
  let ne = Array.length efields in
  let want = Array.make ne (raw >= 0) in
  List.iter
    (fun (_, _, e) ->
       Option.iter (fun (g, _) -> want.(g) <- true) e.guard;
       Array.iter (function Take (g, _) -> want.(g) <- true | Const _ | Each _ -> ()) e.elem)
    takers;
  let gather = comp_gather endian er want in
  let taken = Array.make ne (raw >= 0) in
  let getter = function
    | Take (g, steps) ->
      let copy =
        taken.(g)
        && match efields.(g).Ptype.ftype with Record _ | Array _ -> true | Basic _ -> false
      in
      taken.(g) <- true;
      (match steps, copy with
       | [], false -> fun row -> row.(g)
       | [], true -> fun row -> Value.copy row.(g)
       | _ :: _, _ ->
         let f = compile_steps steps in
         if copy then fun row -> f (Value.copy row.(g)) else fun row -> f row.(g))
    | Const v -> const_of v
    | Each _ -> assert false
  in
  let names (r : Ptype.record) =
    Array.of_list (List.map (fun (f : Ptype.field) -> f.Ptype.fname) r.fields)
  in
  let appenders =
    Array.of_list
      (List.mapi
         (fun t (_, r, e) ->
            let build = record_of (names r) (Array.map getter e.elem) in
            let append row (items : Value.t array array) counts =
              let c = counts.(t) in
              items.(t).(c) <- build row;
              counts.(t) <- c + 1
            in
            match e.guard with
            | None -> append
            | Some (p, []) ->
              fun row items counts ->
                if (match row.(p) with Value.Bool b -> b | v -> Value.to_bool v) then
                  append row items counts
            | Some (p, steps) ->
              let f = compile_steps steps in
              fun row items counts -> if Value.to_bool (f row.(p)) then append row items counts)
         takers)
  in
  let ntk = Array.length appenders in
  let targets = Array.of_list (List.map (fun (j, _, _) -> j) takers) in
  let whole = record_of (names er) (Array.init ne (fun g row -> row.(g))) in
  let n_of = count a in
  fun cur st ->
    let n = n_of cur in
    let row = fresh ne in
    let items = Array.make ntk [||] in
    for t = 0 to ntk - 1 do
      items.(t) <- Array.make n zero
    done;
    let counts = Array.make ntk 0 in
    let kept = if raw >= 0 then Array.make n (Value.Int 0) else [||] in
    for e = 0 to n - 1 do
      gather cur row;
      if raw >= 0 then kept.(e) <- whole row;
      for t = 0 to ntk - 1 do
        appenders.(t) row items counts
      done
    done;
    for t = 0 to ntk - 1 do
      st.(targets.(t)) <- Value.Array { items = items.(t); len = counts.(t) }
    done;
    if raw >= 0 then begin
      let v = Value.Array { items = kept; len = n } in
      st.(raw) <- v;
      match lens_k with Some k -> cur.lens.(k) <- v | None -> ()
    end

(* [rd] with the dropped fields before it folded in front of its read,
   or those after it folded behind; a lone span is inlined. *)
let fold_before endian pieces (rd : reader) : reader =
  match coalesce pieces with
  | [] -> rd
  | [ Span n ] ->
    fun cur ->
      skip cur n;
      rd cur
  | ps ->
    let steps = steps_of endian ps in
    fun cur ->
      run_steps steps cur no_lens;
      rd cur

let fold_after endian pieces (rd : reader) : reader =
  match coalesce pieces with
  | [] -> rd
  | [ Span n ] ->
    fun cur ->
      let v = rd cur in
      skip cur n;
      v
  | ps ->
    let steps = steps_of endian ps in
    fun cur ->
      let v = rd cur in
      run_steps steps cur no_lens;
      v

(* Fused type decoder: read a [src]-formatted value off the wire and build
   it directly in the [dst] layout, with no intermediate source-format
   value.  Returns None exactly when [Convert.compile_type] would (the
   shapes are incompatible; the caller then skips the source bytes and
   materialises the target default).  Fusion recurses through records and
   arrays, by {!by_name} maps, so e.g. fields dropped from an array element
   are skipped on the wire instead of decoded and discarded. *)
let rec comp_morph_type endian count (src : Ptype.t) (dst : Ptype.t) : reader option =
  if Ptype.equal_type src dst then Some (comp_decode_type endian count src)
  else
    match src, dst with
    | Ptype.Basic _, Ptype.Basic _ ->
      (match Convert.compile_type src dst with
       | None -> None
       | Some co ->
         let dec = comp_decode_type endian count src in
         Some (fun cur -> co (dec cur)))
    | Record r1, Record r2 ->
      let map = by_name ~from_:r1 ~into:r2 in
      (match ordered_record endian r1 r2 map with
       | Some rd -> Some rd
       | None ->
         let read, build = comp_map_record endian r1 r2 map in
         Some (fun cur -> build (read cur)))
    | Array a1, Array a2 ->
      (* like [Convert.compile_type]: an inconvertible element becomes a
         copy of the target default, but the source bytes must still be
         consumed (and validated) *)
      let elem =
        match comp_morph_type endian count a1.elem a2.elem with
        | Some f -> f
        | None ->
          let sk = skip_step endian (skip_pieces endian count a1.elem) in
          let d = Value.default a2.elem in
          fun cur ->
            sk cur no_lens;
            Value.copy d
      in
      (match a2.size with
       | Ptype.Length_field _ -> Some (read_array (count a1) elem)
       | Fixed k ->
         let d = Value.default a2.elem in
         let n_of = count a1 in
         let skip_n = skip_elems endian count a1.elem in
         Some
           (fun cur ->
              let n = n_of cur in
              let take = if k < n then k else n in
              let items =
                Array.init k (fun i ->
                    if i < take then elem cur else Value.copy d)
              in
              skip_n cur (n - take);
              Value.Array { items; len = k }))
    | (Basic _ | Record _ | Array _), _ -> None

(* A source field of type [ty] read through structural [steps]; a single
   conversion fuses into the read. *)
and converted endian count (ty : Ptype.t) (steps : step list) : reader =
  match steps with
  | [] -> comp_decode_type endian count ty
  | [ Convert (s, t) ] when Ptype.equal_type s ty ->
    (match comp_morph_type endian count ty t with Some dec -> dec | None -> assert false)
  | _ ->
    let dec = comp_decode_type endian count ty and f = compile_steps steps in
    fun cur -> f (dec cur)

(* An ordered map, read in one pass as a hand-written decoder would: a
   map that takes source fields in wire order, each at most once,
   through [Convert] steps only and with no checks (every {!by_name} map
   whose target keeps the source's field order).  Each target field's
   reader runs in target order, which is wire order: it first skips the
   dropped fields before its own, or reads them into the length slots a
   later array needs, and the last reader also goes through the fields
   after its own.  The target record is allocated once, with its final
   values.  A taken length field stores its source value in its slot,
   then converts.  [None] for any other map, which reads in two phases
   ([comp_map_record]). *)
and ordered_record endian (src : Ptype.record) (dst : Ptype.record) (map : field_map) :
  reader option =
  let takes =
    List.filter_map (function Take (i, _) -> Some i | Const _ | Each _ -> None)
      (Array.to_list map.slots)
  in
  let rec rising = function a :: (b :: _ as rest) -> a < b && rising rest | [ _ ] | [] -> true in
  let structural = function
    | Take (_, steps) -> List.for_all (function Convert _ -> true | Coerce _ -> false) steps
    | Const _ -> true
    | Each _ -> false
  in
  if map.checks <> [] || takes = [] || (not (rising takes))
     || not (Array.for_all structural map.slots)
  then None
  else begin
    let fields, nf, nslots, slot_for_field, slot_for_name = record_layout src in
    let count = array_count src slot_for_name in
    let taker = Array.make nf None in
    Array.iteri
      (fun j -> function Take (i, steps) -> taker.(i) <- Some (j, steps) | Const _ | Each _ -> ())
      map.slots;
    let readers = Array.map (function Const v -> const_of v | Take _ | Each _ -> const_of zero) map.slots in
    let pending = ref [] and last = ref 0 in
    for i = 0 to nf - 1 do
      let ty = fields.(i).Ptype.ftype and slot = slot_for_field i in
      match taker.(i) with
      | None -> pending := !pending @ drop_pieces endian count ty slot
      | Some (j, steps) ->
        let rd =
          match slot, steps with
          | None, _ -> converted endian count ty steps
          | Some k, [] ->
            let dec = comp_decode_type endian count ty in
            fun cur ->
              let v = dec cur in
              cur.lens.(k) <- v;
              v
          | Some k, _ ->
            let dec = comp_decode_type endian count ty and f = compile_steps steps in
            fun cur ->
              let v = dec cur in
              cur.lens.(k) <- v;
              f v
        in
        readers.(j) <- fold_before endian !pending rd;
        pending := [];
        last := j
    done;
    readers.(!last) <- fold_after endian !pending readers.(!last);
    let tnames = Array.of_list (List.map (fun (f : Ptype.field) -> f.Ptype.fname) dst.fields) in
    Some (scoped nslots (record_of tnames readers))
  end

(* A field map compiled over one record scope, in two phases.  [read]
   walks the source fields in wire order into a state array: the first
   [nt] entries hold target fields decoded straight into place (a source
   field with one taker, no check and structural steps only, which cannot
   fail), the rest hold source values kept for [build].  [build] runs the
   checks in order, then the kept values' steps, then assembles the target
   record.  The walker skips unused fields on the wire, or only reads them
   when other arrays size from them.  The map is a checked one
   ([check_map]) or a by-name one, which fits by construction. *)
and comp_map_record endian (src : Ptype.record) (dst : Ptype.record) (map : field_map) :
  (cursor -> Value.t array) * (Value.t array -> Value.t) =
  let fields = Array.of_list src.fields in
  let nf = Array.length fields in
  let tnames = Array.of_list (List.map (fun (f : Ptype.field) -> f.Ptype.fname) dst.fields) in
  let nt = Array.length tnames in
  (* takers of each source field, in target order: of the field itself,
     and of its elements (with the target element record) *)
  let uses = Array.make (max nf 1) [] in
  let each_uses = Array.make (max nf 1) [] in
  for j = nt - 1 downto 0 do
    match map.slots.(j) with
    | Take (i, steps) -> uses.(i) <- (j, steps) :: uses.(i)
    | Each e ->
      (match (List.nth dst.fields j).Ptype.ftype with
       | Ptype.Array { elem = Record r; _ } ->
         each_uses.(e.array) <- (j, r, e) :: each_uses.(e.array)
       | Basic _ | Record _ | Array _ -> assert false)
    | Const _ -> ()
  done;
  let checked = Array.make (max nf 1) false in
  List.iter (fun (i, _) -> checked.(i) <- true) map.checks;
  let kept = Array.make (max nf 1) (-1) in
  let nst = ref nt in
  let keep_at i =
    let p = !nst in
    incr nst;
    kept.(i) <- p;
    p
  in
  let wire_phase = List.for_all (function Convert _ -> true | Coerce _ -> false) in
  let keep count i sty lens_k =
    let dec () = comp_decode_type endian count sty in
    match uses.(i), checked.(i) with
    | uses_i, checked_i when each_uses.(i) <> [] ->
      (* an element-mapped array, also kept whole when anything else
         takes it *)
      let raw = if uses_i = [] && (not checked_i) && lens_k = None then -1 else keep_at i in
      Some (comp_each endian count sty each_uses.(i) ~raw ~lens_k)
    | [], false -> None
    | [ (j, steps) ], false when wire_phase steps && (steps = [] || lens_k = None) ->
      (* one taker, no check, structural steps: decoded straight into
         place.  A length-referenced field with steps is kept for [build]
         instead, since its length slot needs the source-formed value *)
      Some (store (converted endian count sty steps) j lens_k)
    | _ -> Some (store (dec ()) (keep_at i) lens_k)
  in
  let w = walk_record endian src keep in
  let nst = !nst in
  let read cur =
    let st = fresh nst in
    walk w cur st;
    st
  in
  (* build phase: the checks, for their failures alone, then the kept
     values' takers; a mutable value taken twice is copied for each later
     taker, as Ecode's record and array assignment copies *)
  let checks =
    List.map
      (fun (i, steps) ->
         let f = compile_steps steps and p = kept.(i) in
         fun st -> ignore (f st.(p) : Value.t))
      map.checks
  in
  let fills =
    List.concat
      (List.init nf (fun i ->
           let p = kept.(i) in
           if p < 0 then []
           else
             let mutable_ =
               match fields.(i).Ptype.ftype with Record _ | Array _ -> true | Basic _ -> false
             in
             List.mapi
               (fun n (j, steps) ->
                  let f = compile_steps steps in
                  if n > 0 && mutable_ then fun st -> st.(j) <- f (Value.copy st.(p))
                  else fun st -> st.(j) <- f st.(p))
               uses.(i)))
  in
  let prepare = Array.of_list (checks @ fills) in
  (* assembly closures resolved now: pull from the state or build the
     constant *)
  let assemble =
    record_of tnames
      (Array.init nt (fun j ->
           match map.slots.(j) with
           | Take _ | Each _ -> fun st -> st.(j)
           | Const v -> const_of v))
  in
  let build =
    match prepare with
    | [||] -> assemble
    | _ ->
      fun st ->
        for k = 0 to Array.length prepare - 1 do
          prepare.(k) st
        done;
        assemble st
  in
  (read, build)

let compile_map ~endian ~(from_ : Ptype.record) ~(into : Ptype.record) (map : field_map) :
  morpher =
  let read, build = comp_map_record endian from_ into map in
  let sync = Value.compile_sync into in
  let mbuild st =
    let res = build st in
    (* target length fields matched by name from the source may disagree
       with converted arrays, exactly as in [Convert.compile] *)
    sync res;
    res
  in
  { mfrom = from_; mread = read; mbuild }

let compile_morph ~endian ~from_ ~into = compile_map ~endian ~from_ ~into (by_name ~from_ ~into)

let morph_payload (m : morpher) ?(pos = 0) (data : string) : Value.t =
  let cur = { data; pos; limit = String.length data; lens = no_lens } in
  let st = m.mread cur in
  if cur.pos <> cur.limit then
    decode_error "trailing garbage: %d bytes left after record %s"
      (cur.limit - cur.pos) m.mfrom.Ptype.rname;
  m.mbuild st

(* --- plan caches ------------------------------------------------------------------- *)

(* Per-format plans, both endians built lazily on first use, in a {!Lru}
   keyed by [Ptype.hash_record] with structural equality.  Bounded:
   hostile shipped meta-data can mint unlimited formats, so the cache
   evicts its least-recently-used entry at the cap — a burst of fresh
   formats cannot flush the hot ones.  Evictions tick
   [codec.plan_evictions]. *)

(* Per-endian plan slots, filled on demand from [key], what the plans
   compile from.  The slots are plain mutable options rather than
   [Lazy.t]: every write happens under the cache lock, so two domains can
   never race a force (which would raise [Lazy.Undefined] on a shared
   lazy).  A reader outside the lock that observes a stale [None] simply
   falls through to the locked double-check; one that observes [Some plan]
   sees a fully-initialised immutable closure tree, which is safe to run
   anywhere. *)
type ('k, 'p) per_endian = {
  key : 'k;
  mutable le : 'p option;
  mutable be : 'p option;
}

let unfilled key = { key; le = None; be = None }

type plans = {
  enc : (Ptype.record, encoder) per_endian;
  dec : (Ptype.record, decoder) per_endian;
}

type mplans = (Ptype.record * Ptype.record, morpher) per_endian

(* A plan cache: the codec part of a [Pbio.Ctx.t] capability.  One mutex
   guards both tables; plan compilation also runs under it, which
   serialises duplicate compiles of the same plan for free. *)
type cache = {
  lock : Mutex.t;
  ptbl : (Ptype.record, plans) Lru.t;
  mtbl : (Ptype.record * Ptype.record, mplans) Lru.t;
  cmetrics : metrics;
}

(* Entries per table kind. *)
let plan_cap = 512

let create_cache ?(metrics = Obs.null) () : cache =
  {
    lock = Mutex.create ();
    ptbl = Lru.create ~equal:Ptype.equal_record ~cap:plan_cap;
    mtbl =
      Lru.create
        ~equal:(fun (f, i) (f', i') ->
          Ptype.equal_record f f' && Ptype.equal_record i i')
        ~cap:plan_cap;
    cmetrics = make_metrics metrics;
  }

let plan_cache_size ~cache =
  Mutex.protect cache.lock (fun () -> Lru.size cache.ptbl + Lru.size cache.mtbl)

let hit (c : cache) =
  let m = c.cmetrics in
  if m.mon then Obs.Counter.incr m.cache_hits

(* Compile one plan, timed into the cache's own registry. *)
let timed_compile (c : cache) (f : unit -> 'a) : 'a =
  let m = c.cmetrics in
  if not m.mon then f ()
  else begin
    let t0 = Obs.now m.mreg in
    let p = f () in
    Obs.Counter.incr m.compiles;
    Obs.Histogram.observe m.compile_ns (Obs.now m.mreg -. t0);
    p
  end

(* The entry for [key] in [tbl], added when missing. *)
let entry (c : cache) tbl ~hash key make =
  Mutex.protect c.lock (fun () ->
      match Lru.find tbl ~hash key with
      | Some p ->
        hit c;
        p
      | None ->
        let p = make key in
        let evicted = Lru.add tbl ~hash key p in
        let m = c.cmetrics in
        if evicted > 0 && m.mon then Obs.Counter.add m.evictions evicted;
        p)

(* One-slot physical-identity memo in front of the hashed tables:
   almost every caller passes the same statically-defined [Ptype.record]
   value per message, and [Ptype.hash_record] walks the whole
   description — at 100-byte messages that walk costs as much as
   decoding.  A [==] hit skips both the walk and the lock.  The slot
   lives in domain-local storage (one per domain per process, not per
   cache), is keyed by cache identity, and does not refresh LRU order —
   interleaved workloads fall through to the hashed lookup and keep the
   hot entry recent.  An entry the LRU has since evicted stays usable in
   the slot: plans are pure functions of their format and endianness. *)
type local_memo = {
  mutable lp : (cache * Ptype.record * plans) option;
  mutable lm : (cache * (Ptype.record * Ptype.record) * mplans) option;
}

let local_memo_key : local_memo Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { lp = None; lm = None })

let plans_for (c : cache) (r : Ptype.record) : plans =
  let memo = Domain.DLS.get local_memo_key in
  match memo.lp with
  | Some (c0, r0, p) when c0 == c && r0 == r ->
    hit c;
    p
  | _ ->
    let p =
      entry c c.ptbl ~hash:(Ptype.hash_record r) r (fun r -> { enc = unfilled r; dec = unfilled r })
    in
    memo.lp <- Some (c, r, p);
    p

let mplans_for (c : cache) ~(from_ : Ptype.record) ~(into : Ptype.record) : mplans =
  let memo = Domain.DLS.get local_memo_key in
  match memo.lm with
  | Some (c0, (f0, i0), p) when c0 == c && f0 == from_ && i0 == into ->
    hit c;
    p
  | _ ->
    let key = (from_, into) in
    let h = ((Ptype.hash_record from_ * 31) + Ptype.hash_record into) land max_int in
    let p = entry c c.mtbl ~hash:h key unfilled in
    memo.lm <- Some (c, key, p);
    p

(* The plan for [endian] in [slots], compiled under the cache lock on
   first use: the one locked double-check behind every cached plan. *)
let per_endian (c : cache) (slots : ('k, 'p) per_endian) endian
    (compile : endian:endian -> 'k -> 'p) : 'p =
  match endian, slots.le, slots.be with
  | Little, Some p, _ | Big, _, Some p -> p
  | _ ->
    Mutex.protect c.lock (fun () ->
        match endian, slots.le, slots.be with
        | Little, Some p, _ | Big, _, Some p -> p
        | _ ->
          let p = timed_compile c (fun () -> compile ~endian slots.key) in
          (match endian with Little -> slots.le <- Some p | Big -> slots.be <- Some p);
          p)

let encoder_for ~cache ~endian (r : Ptype.record) : encoder =
  per_endian cache (plans_for cache r).enc endian compile_encode

let decoder_for ~cache ~endian (r : Ptype.record) : decoder =
  per_endian cache (plans_for cache r).dec endian compile_decode

let morpher_in (cache : cache) ~endian ~(from_ : Ptype.record)
    ~(into : Ptype.record) : morpher =
  per_endian cache (mplans_for cache ~from_ ~into) endian (fun ~endian (from_, into) ->
      compile_morph ~endian ~from_ ~into)

(* Collapsed chains compile one map per plan; nothing shares them. *)
let compile_map_in (cache : cache) ~endian (c : checked) : morpher =
  timed_compile cache (fun () -> compile_map ~endian ~from_:c.cfrom ~into:c.cinto c.cmap)
