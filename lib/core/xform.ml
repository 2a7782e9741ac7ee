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
    | Compiled -> Ecode.compile_xform ?ctx
    | Interpreted -> Ecode.interpret_xform
  in
  match build ~src:source ~dst:spec.target spec.code with
  | Error e ->
    Error
      (`Xform
        (Fmt.str "transformation %s -> %s: %s"
           source.Ptype.rname spec.target.Ptype.rname e))
  | Ok run -> Ok { source; spec; run }

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

(* Compile every hop of a spec path and compose them into one function
   from [source] messages to the last hop's target. *)
let compile_chain ?engine ?ctx ~(source : Ptype.record) (specs : spec list) :
  (Value.t -> Value.t, Err.t) result =
  let rec go source acc = function
    | [] -> Ok acc
    | (spec : spec) :: rest ->
      (match compile ?engine ?ctx ~source spec with
       | Error _ as e -> e
       | Ok compiled ->
         let step = compiled.run in
         go spec.target (fun v -> step (acc v)) rest)
  in
  go source (fun v -> v) specs

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
