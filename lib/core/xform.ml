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
   message: source field [i] through [steps], or a constant. *)
type held =
  | Src of int * Codec.step list
  | Val of Value.t

exception Fallback

let first_index (fields : Ptype.field array) name =
  let rec go i =
    if i >= Array.length fields then None
    else if fields.(i).Ptype.fname = name then Some i
    else go (i + 1)
  in
  go 0

(* One hop's stores over what its input fields hold.  Every field starts
   as the hop's output default; a later store to a field wins.  A store
   whose coercions can fail (into an enum) becomes a check, so it fails
   the message in the same order even when no target field keeps it. *)
let run_moves (input : held array) (out_fmt : Ptype.record) (moves : Ecode.move list) checks =
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
         | Read (g, cs) ->
           (match input.(g) with
            | Val v ->
              let v =
                List.fold_left (fun v (from, co) -> Coerce.compile ~from co v) v cs
              in
              out.(dst) <- Val v;
              checks
            | Src (i, steps) ->
              let steps = steps @ List.map (fun (from, co) -> Codec.Coerce (from, co)) cs in
              out.(dst) <- Src (i, steps);
              if List.exists (function _, Coerce.To_enum _ -> true | _ -> false) cs then
                (i, steps) :: checks
              else checks))
      checks moves
  in
  (out, checks)

(* The hop's closing [Value.compile_sync], at plan time.  Constants take
   the values the sync leaves them with: it runs over a stand-in whose
   other fields hold their type's default.  A variable array taken from the
   source must come with its length field, from the source array's own
   length field, so the two still agree and the sync has nothing to do; a
   constant array fixes its length field to a constant.  Anything else
   falls back.  (A record or array taken whole from the source agrees with
   its inner length fields, as the wire decoded it.) *)
let sync_hop (src_fields : Ptype.field array) (fmt : Ptype.record) (out : held array) =
  let fields = Array.of_list fmt.fields in
  let stand_in =
    Value.Record
      (Array.mapi
         (fun j (f : Ptype.field) ->
            { Value.name = f.fname;
              v = (match out.(j) with Val v -> Value.copy v | Src _ -> Value.default f.ftype) })
         fields)
  in
  Value.sync_lengths fmt stand_in;
  let es = Value.entries stand_in in
  Array.iteri (fun j h -> match h with Val _ -> out.(j) <- Val es.(j).v | Src _ -> ()) out;
  Array.iteri
    (fun j (f : Ptype.field) ->
       match f.ftype with
       | Ptype.Array { size = Length_field n; _ } ->
         let jn = match first_index fields n with Some jn -> jn | None -> raise Fallback in
         (match out.(j) with
          | Val _ -> out.(jn) <- Val es.(jn).v
          | Src (i, []) ->
            (match src_fields.(i).Ptype.ftype with
             | Ptype.Array { size = Length_field m; _ } ->
               let same_count = function
                 | Codec.Coerce (_, (Coerce.To_int | To_uint)) -> true
                 | Coerce _ | Convert _ -> false
               in
               (match out.(jn) with
                | Src (im, steps)
                  when Some im = first_index src_fields m && List.for_all same_count steps -> ()
                | Src _ | Val _ -> raise Fallback)
             | Basic _ | Record _ | Array _ -> raise Fallback)
          | Src _ -> raise Fallback)
       | Basic _ | Record _ | Array _ -> ())
    fields

(* The final structural conversion on top, by [Convert]'s rules: each
   target field from the first endpoint field of its name through
   [Convert.compile_type]; the target default for a missing name or
   inconvertible types. *)
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
               Codec.Take (i, if identity then steps else steps @ [ Codec.Convert (from, f.ftype) ]))
          | Some _ | None -> Codec.Const (Convert.field_default f ()))
       target.fields)

let collapse ~(source : Ptype.record) (hops : compiled list) ~(target : Ptype.record) :
  Codec.field_map option =
  let src_fields = Array.of_list source.fields in
  match
    List.fold_left
      (fun (held, checks) (h : compiled) ->
         match h.moves with
         | None -> raise Fallback
         | Some moves ->
           let out, checks = run_moves held h.spec.target moves checks in
           sync_hop src_fields h.spec.target out;
           (out, checks))
      (Array.mapi (fun i _ -> Src (i, [])) src_fields, [])
      hops
  with
  | exception (Fallback | Value.Type_error _ | Coerce.Runtime_error _) ->
    (* a hop that fails at plan time (a constant its coercion rejects, a
       default its format cannot hold) fails every message: it runs *)
    None
  | held, checks ->
    let endpoint = List.fold_left (fun _ (h : compiled) -> h.spec.target) source hops in
    let slots =
      if Ptype.equal_record endpoint target then
        Array.map (function Src (i, steps) -> Codec.Take (i, steps) | Val v -> Codec.Const v) held
      else convert_slots endpoint held target
    in
    Some { Codec.slots; checks = List.rev checks }

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
