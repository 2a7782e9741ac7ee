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
  hop : Ecode.hop option;
  (* the hop as a field map, when it is straight-line stores; the
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
  | Ok (run, hop) -> Ok { source; spec; run; hop }

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
   message: a slot over the source, or [None] for the length field of an
   array a loop built, which only a length sync writes and nothing may
   read. *)
type held = Codec.slot option

exception Fallback

(* The position of variable array [i]'s length field. *)
let length_field (r : Ptype.record) i =
  match (List.nth r.fields i).Ptype.ftype with
  | Ptype.Array { size = Length_field n; _ } -> Ptype.field_index r n
  | Basic _ | Record _ | Array _ -> None

(* Steps that keep an array length as it is: lengths are non-negative and
   fit 32 bits. *)
let same_count = function
  | Codec.Coerce (_, (Coerce.To_int | To_uint)) -> true
  | Coerce _ | Convert _ -> false

(* Whether [h] holds source array [i]'s length field, which precedes the
   array, so [h] counts the array's decoded elements. *)
let counted source i (h : held) =
  match h with
  | Some (Take (im, steps)) ->
    Some im = length_field source i && im < i && List.for_all same_count steps
  | Some (Const _ | Each _) | None -> false

(* Whether a loop over [array] bounded by [bound] runs once per element of
   what [array] holds: a source array its bound still counts, or a
   constant array whose bound holds its length. *)
let loop_runs source (input : held array) (bound, array) =
  match input.(array), input.(bound) with
  | Some (Const (Value.Array { len; _ })), Some (Const (Value.Int n | Value.Uint n)) -> n = len
  | Some (Take (a, [])), h -> counted source a h
  | _ -> false

(* One slot of a hop's map over what its input fields hold: a read takes
   the held slot through its own steps, at plan time when that is a
   constant; a built array moves whole; an element map must still read a
   source array.  Anything else falls back. *)
let substitute (input : held array) : Codec.slot -> Codec.slot = function
  | Const _ as c -> c
  | Take (g, steps) ->
    (match input.(g), steps with
     | Some (Const v), _ ->
       Const
         (List.fold_left
            (fun v -> function
               | Codec.Coerce (from, co) -> Coerce.compile ~from co v
               | Convert _ -> raise Fallback)
            v steps)
     | Some (Take (i, s)), _ -> Take (i, s @ steps)
     | Some (Each _ as e), [] -> e
     | Some (Each _), _ :: _ | None, _ -> raise Fallback)
  | Each e ->
    (match input.(e.array) with
     | Some (Take (a, [])) -> Each { e with array = a }
     | Some (Take _ | Const _ | Each _) | None -> raise Fallback)

(* The hop's closing [Value.compile_sync], at plan time.  Constants take
   the values the sync leaves them with: it runs over a stand-in whose
   other fields hold their type's default.  A variable array taken from the
   source must come with its length field, from the source array's own
   length field, which precedes it, so the two still agree and the sync
   has nothing to do; a constant array fixes its length field to a
   constant.  A built array's length field becomes [None]; one built
   from every element of a source array keeps that array's length field
   when it holds it.  Anything else falls back.  (A record or array taken
   whole from the source agrees with its inner length fields, as the wire
   decoded it.) *)
let sync_hop source (fmt : Ptype.record) (out : held array) =
  let fields = Array.of_list fmt.fields in
  let stand_in =
    Value.Record
      (Array.mapi
         (fun j (f : Ptype.field) ->
            { Value.name = f.fname;
              v =
                (match out.(j) with
                 | Some (Const v) -> Value.copy v
                 | Some (Take _ | Each _) | None -> Value.default f.ftype) })
         fields)
  in
  Value.sync_lengths fmt stand_in;
  let es = Value.entries stand_in in
  Array.iteri
    (fun j (h : held) -> match h with Some (Const _) -> out.(j) <- Some (Const es.(j).v) | _ -> ())
    out;
  Array.iteri
    (fun j (f : Ptype.field) ->
       match f.ftype with
       | Ptype.Array { size = Length_field n; _ } ->
         let jn = match Ptype.field_index fmt n with Some jn -> jn | None -> raise Fallback in
         (match out.(j) with
          | Some (Const _) -> out.(jn) <- Some (Const es.(jn).v)
          | Some (Take (i, [])) -> if not (counted source i out.(jn)) then raise Fallback
          | Some (Each { array; guard = None; _ }) when counted source array out.(jn) -> ()
          | Some (Each _) -> out.(jn) <- None
          | Some (Take _) | None -> raise Fallback)
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
          match Ptype.field_index endpoint f.fname with
          | Some k when Convert.convertible fields.(k).Ptype.ftype f.ftype ->
            let from = fields.(k).Ptype.ftype in
            (match held.(k) with
             | Some (Const v) -> Codec.Const (Option.get (Convert.compile_type from f.ftype) v)
             | Some (Take (i, steps)) ->
               (* equal basic types convert by the identity; equal records
                  and arrays are rebuilt, fixed sizes included *)
               let identity =
                 match from with
                 | Ptype.Basic _ -> Ptype.equal_type from f.ftype
                 | Record _ | Array _ -> false
               in
               Codec.Take (i, if identity then steps else steps @ [ Codec.Convert (from, f.ftype) ])
             | Some (Each _) | None -> raise Fallback)
          | Some _ | None -> Codec.Const (Convert.field_default f ()))
       target.fields)

let collapse ~(source : Ptype.record) (hops : compiled list) ~(target : Ptype.record) :
  Codec.checked option =
  match
    let held, checks =
      List.fold_left
        (fun (held, checks) (h : compiled) ->
           match h.hop with
           | None -> raise Fallback
           | Some { Ecode.map; loops } ->
             (* every loop, also one whose list a later store overwrote:
                the hop-by-hop chain still runs it; and every element map
                fits the hop's own formats, also one a later hop drops (a
                map without loops has none, and fits) *)
             if not (List.for_all (loop_runs source held) loops) then raise Fallback;
             let fits () = Result.is_ok (Codec.check_map ~from_:h.source ~into:h.spec.target map) in
             if loops <> [] && not (fits ()) then raise Fallback;
             let out = Array.map (fun s -> Some (substitute held s)) map.slots in
             (* a check over a constant ran at plan time *)
             let hop_checks =
               List.filter_map
                 (fun (g, steps) ->
                    match substitute held (Take (g, steps)) with
                    | Take (i, steps) -> Some (i, steps)
                    | Const _ | Each _ -> None)
                 map.checks
             in
             sync_hop source h.spec.target out;
             (out, checks @ hop_checks))
        (Array.init (List.length source.fields) (fun i -> Some (Codec.Take (i, []))), [])
        hops
    in
    let endpoint = List.fold_left (fun _ (h : compiled) -> h.spec.target) source hops in
    let slots =
      if Ptype.equal_record endpoint target then
        Array.mapi
          (fun j -> function
             | Some s -> s
             | None ->
               (* any value of the field's type: the plan's closing sync
                  writes the count *)
               Codec.Const (Value.default (List.nth target.fields j).Ptype.ftype))
          held
      else convert_slots endpoint held target
    in
    Codec.check_map ~from_:source ~into:target { slots; checks }
  with
  | Ok map -> Some map
  | Error _ | (exception (Fallback | Value.Type_error _ | Coerce.Runtime_error _)) ->
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
