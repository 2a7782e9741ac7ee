(* Retro-transformations: the Ecode snippets a writer associates with a new
   format so that receivers can convert messages into older formats
   (paper, Figure 1).  This module compiles transformation specs shipped in
   format meta-data into executable converters. *)

open Pbio

type spec = Meta.xform_spec = {
  source : Ptype.record option;
  target : Ptype.record;
  code : string;
}

type compiled = {
  source : Ptype.record;
  spec : spec;
  run : Value.t -> Value.t;
  moves : Ecode.move list option;
  (* the hop's typed body as moves, when it is straight-line stores; the
     interpreted engine keeps none *)
}

(* Engine choice exists for the A1 ablation; production paths use the
   compiled (code-generated) engine. *)
type engine =
  | Compiled
  | Interpreted

let compile ?(engine = Compiled) ?ctx ~(source : Ptype.record) (spec : spec) :
  (compiled, Err.t) result =
  let build =
    match engine with
    | Compiled -> Ecode.compile_hop ?ctx
    | Interpreted ->
      fun ~src ~dst code -> Result.map (fun run -> (run, None)) (Ecode.interpret_xform ~src ~dst code)
  in
  match build ~src:source ~dst:spec.target spec.code with
  | Error e ->
    Error
      (`Xform
        (Fmt.str "transformation %s -> %s: %s"
           source.Ptype.rname spec.target.Ptype.rname e))
  | Ok (run, moves) -> Ok { source; spec; run; moves }

(* The formats a meta's transformations reach from its body, including
   multi-hop chains: a spec whose source is a previously reachable format
   extends the chain (Figure 1's Rev 2.0 -> Rev 1.0 -> Rev 0.0 lineage).
   Breadth-first over the transformation graph keeps each reachable
   format's shortest spec path; cycles stop at the visited check. *)
let reachable (meta : Meta.format_meta) : (Ptype.record * spec list) list =
  let fm = meta.Meta.body in
  let visited = ref [ fm ] in
  let seen f = List.exists (Ptype.equal_record f) !visited in
  let rec bfs acc frontier =
    match frontier with
    | [] -> List.rev acc
    | (f, path) :: rest ->
      let extensions =
        List.filter_map
          (fun (x : spec) ->
             let src = Option.value x.source ~default:fm in
             if Ptype.equal_record src f && not (seen x.target) then begin
               visited := x.target :: !visited;
               Some (x.target, path @ [ x ])
             end
             else None)
          meta.Meta.xforms
      in
      bfs ((f, path) :: acc) (rest @ extensions)
  in
  bfs [] [ (fm, []) ]

(* Compile every hop of a spec path, starting from [source] messages. *)
let compile_chain ?engine ?ctx ~(source : Ptype.record) (specs : spec list) :
  (compiled list, Err.t) result =
  let rec go source acc = function
    | [] -> Ok (List.rev acc)
    | (spec : spec) :: rest ->
      (match compile ?engine ?ctx ~source spec with
       | Error _ as e -> e
       | Ok hop -> go spec.target (hop :: acc) rest)
  in
  go source [] specs

(* The hops run one after another. *)
let run_chain (hops : compiled list) : Value.t -> Value.t =
  List.fold_left (fun acc (h : compiled) -> let step = h.run in fun v -> step (acc v)) Fun.id hops

(* --- collapse ------------------------------------------------------------- *)

(* What one field of a chain format holds, as a function of the source
   message: source field [i] through [steps], a constant, an array a loop
   built from a source array, or the length field of such an array, which
   only a length sync writes and nothing may read. *)
type held =
  | Src of int * Codec.step list
  | Val of Value.t
  | Each of Codec.each
  | Count

exception Fallback

let first_index (fields : Ptype.field array) name =
  let rec go i =
    if i >= Array.length fields then None
    else if fields.(i).Ptype.fname = name then Some i
    else go (i + 1)
  in
  go 0

(* The position of variable array [i]'s length field. *)
let length_field (fields : Ptype.field array) i =
  match fields.(i).Ptype.ftype with
  | Ptype.Array { size = Length_field n; _ } -> first_index fields n
  | Basic _ | Record _ | Array _ -> None

(* Steps that keep an array length as it is: lengths are non-negative and
   fit 32 bits. *)
let same_count = function
  | Codec.Coerce (_, (Coerce.To_int | To_uint)) -> true
  | Coerce _ | Convert _ -> false

let coerce_steps cs = List.map (fun (from, co) -> Codec.Coerce (from, co)) cs

(* Whether [h] holds source array [i]'s length field, which precedes the
   array, so [h] counts the array's decoded elements. *)
let counted src_fields i (h : held) =
  match h with
  | Src (im, steps) ->
    Some im = length_field src_fields i && im < i && List.for_all same_count steps
  | Val _ | Each _ | Count -> false

(* The source array a loop runs over: the loop's array must still be a
   source array and its bound must still count that array's elements, so
   the loop runs once per decoded element. *)
let loop_array src_fields (input : held array) (e : Ecode.each) =
  match input.(e.array) with
  | Src (a, []) when counted src_fields a input.(e.count) -> a
  | Src _ | Val _ | Each _ | Count -> raise Fallback

(* A loop's element map over what its input holds: target element fields
   start as the element default, then take the loop's element moves.  The
   map reads source records and builds target records; a loop over an
   array of anything else falls back. *)
let element_map src_fields (input : held array) (elem_fmt : Ptype.t) (e : Ecode.each) fill :
  Codec.each =
  let array = loop_array src_fields input e in
  match src_fields.(array).Ptype.ftype, elem_fmt with
  | Ptype.Array { elem = Record _; _ }, Ptype.Record r ->
    let elem =
      Array.map (fun (en : Value.entry) -> Codec.Const en.Value.v)
        (Value.entries (Value.default_record r))
    in
    List.iter
      (fun ({ dst; rhs } : Ecode.move) ->
         elem.(dst) <-
           (match rhs with
            | Ecode.Read (g, cs) -> Codec.Take (g, coerce_steps cs)
            | Const v -> Codec.Const v
            | Each _ -> raise Fallback))
      fill;
    { Codec.array; guard = Option.map (fun (p, cs) -> (p, coerce_steps cs)) e.guard; elem }
  | _ -> raise Fallback

(* One hop's stores over what its input fields hold.  Every field starts
   as the hop's output default; a later store to a field wins.  A store
   whose coercions can fail (into an enum) becomes a check, so it fails
   the message in the same order even when no target field keeps it.  A
   built array moves whole; its count and any other use of it fall back. *)
let run_moves src_fields (input : held array) (out_fmt : Ptype.record) (moves : Ecode.move list)
    checks =
  let out =
    Array.map (fun (e : Value.entry) -> Val e.Value.v)
      (Value.entries (Value.default_record out_fmt))
  in
  let checks =
    List.fold_left
      (fun checks ({ dst; rhs } : Ecode.move) ->
         match rhs with
         | Ecode.Const v ->
           out.(dst) <- Val v;
           checks
         | Each ({ fill = None; guard = None; _ } as e) ->
           (* each element copied whole: the array itself, when the bound
              counts its elements *)
           out.(dst) <-
             (match input.(e.array), input.(e.count) with
              | Val (Value.Array { len; _ } as v), Val (Value.Int n | Value.Uint n) when n = len ->
                Val v
              | _ -> Src (loop_array src_fields input e, []));
           checks
         | Each ({ fill = Some fill; _ } as e) ->
           let elem_fmt =
             match (List.nth out_fmt.fields dst).Ptype.ftype with
             | Ptype.Array { elem; _ } -> elem
             | Basic _ | Record _ -> raise Fallback
           in
           out.(dst) <- Each (element_map src_fields input elem_fmt e fill);
           checks
         | Each { fill = None; guard = Some _; _ } -> raise Fallback
         | Read (g, cs) ->
           (match input.(g) with
            | Val v ->
              let v =
                List.fold_left (fun v (from, co) -> Coerce.compile ~from co v) v cs
              in
              out.(dst) <- Val v;
              checks
            | Src (i, steps) ->
              let steps = steps @ coerce_steps cs in
              out.(dst) <- Src (i, steps);
              if List.exists (function _, Coerce.To_enum _ -> true | _ -> false) cs then
                (i, steps) :: checks
              else checks
            | Each e when cs = [] ->
              out.(dst) <- Each e;
              checks
            | Each _ | Count -> raise Fallback))
      checks moves
  in
  (out, checks)

(* The hop's closing [Value.compile_sync], at plan time.  Constants take
   the values the sync leaves them with: it runs over a stand-in whose
   other fields hold their type's default.  A variable array taken from the
   source must come with its length field, from the source array's own
   length field, which precedes it, so the two still agree and the sync
   has nothing to do; a constant array fixes its length field to a
   constant.  A built array's length field becomes [Count]; one built
   from every element of a source array keeps that array's length field
   when it holds it.  Anything else falls back.  (A record or array taken
   whole from the source agrees with its inner length fields, as the wire
   decoded it.) *)
let sync_hop (src_fields : Ptype.field array) (fmt : Ptype.record) (out : held array) =
  let fields = Array.of_list fmt.fields in
  let stand_in =
    Value.Record
      (Array.mapi
         (fun j (f : Ptype.field) ->
            { Value.name = f.fname;
              v =
                (match out.(j) with
                 | Val v -> Value.copy v
                 | Src _ | Each _ | Count -> Value.default f.ftype) })
         fields)
  in
  Value.sync_lengths fmt stand_in;
  let es = Value.entries stand_in in
  Array.iteri
    (fun j h -> match h with Val _ -> out.(j) <- Val es.(j).v | Src _ | Each _ | Count -> ())
    out;
  Array.iteri
    (fun j (f : Ptype.field) ->
       match f.ftype with
       | Ptype.Array { size = Length_field n; _ } ->
         let jn = match first_index fields n with Some jn -> jn | None -> raise Fallback in
         (match out.(j) with
          | Val _ -> out.(jn) <- Val es.(jn).v
          | Src (i, []) -> if not (counted src_fields i out.(jn)) then raise Fallback
          | Each { array; guard = None; _ } when counted src_fields array out.(jn) -> ()
          | Each _ -> out.(jn) <- Count
          | Src _ | Count -> raise Fallback)
       | Basic _ | Record _ | Array _ -> ())
    fields

(* The final structural conversion on top, by [Convert]'s rules: each
   target field from the first endpoint field of its name through
   [Convert.compile_type]; the target default for a missing name or
   inconvertible types.  A built array or its count falls back. *)
let convert_slots (endpoint : Ptype.record) (held : held array) (target : Ptype.record) =
  let fields = Array.of_list endpoint.fields in
  Array.of_list
    (List.map
       (fun (f : Ptype.field) ->
          match first_index fields f.fname with
          | Some k when Convert.convertible fields.(k).Ptype.ftype f.ftype ->
            let from = fields.(k).Ptype.ftype in
            (match held.(k) with
             | Val v -> Codec.Const (Option.get (Convert.compile_type from f.ftype) v)
             | Src (i, steps) ->
               (* equal basic types convert by the identity; equal records
                  and arrays are rebuilt, fixed sizes included *)
               let identity =
                 match from with
                 | Ptype.Basic _ -> Ptype.equal_type from f.ftype
                 | Record _ | Array _ -> false
               in
               Codec.Take (i, if identity then steps else steps @ [ Codec.Convert (from, f.ftype) ])
             | Each _ | Count -> raise Fallback)
          | Some _ | None -> Codec.Const (Convert.field_default f ()))
       target.fields)

let collapse ~(source : Ptype.record) (hops : compiled list) ~(target : Ptype.record) :
  Codec.field_map option =
  let src_fields = Array.of_list source.fields in
  match
    let held, checks =
      List.fold_left
        (fun (held, checks) (h : compiled) ->
           match h.moves with
           | None -> raise Fallback
           | Some moves ->
             let out, checks = run_moves src_fields held h.spec.target moves checks in
             sync_hop src_fields h.spec.target out;
             (out, checks))
        (Array.mapi (fun i _ -> Src (i, [])) src_fields, [])
        hops
    in
    let endpoint = List.fold_left (fun _ (h : compiled) -> h.spec.target) source hops in
    let slots =
      if Ptype.equal_record endpoint target then
        Array.mapi
          (fun j -> function
             | Src (i, steps) -> Codec.Take (i, steps)
             | Val v -> Codec.Const v
             | Each e -> Codec.Each e
             | Count ->
               (* any value of the field's type: the plan's closing sync
                  writes the count *)
               Codec.Const (Value.default (List.nth target.fields j).Ptype.ftype))
          held
      else convert_slots endpoint held target
    in
    { Codec.slots; checks = List.rev checks }
  with
  | map -> Some map
  | exception (Fallback | Value.Type_error _ | Coerce.Runtime_error _) ->
    (* a hop that fails at plan time (a constant its coercion rejects, a
       default its format cannot hold) fails every message: it runs *)
    None

(* Convenience constructor for writer-side registration. *)
let spec ?source ~(target : Ptype.record) (code : string) : spec =
  { source; target; code }

(* Validate a spec without keeping the compiled form: writers call this at
   registration time so broken transformation code fails fast, at the
   sender, not at some receiver. *)
let check ~(source : Ptype.record) (spec : spec) : (unit, Err.t) result =
  match compile ~source spec with
  | Ok _ -> Ok ()
  | Error _ as e -> e
