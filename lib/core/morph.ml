(* Message Morphing — public facade.

   The paper's primary contribution: combine out-of-band binary meta-data
   (PBIO format descriptions, {!Pbio}) with dynamically generated
   transformation code ({!Ecode}) so receivers convert incoming messages of
   unknown formats into formats they understand, with no negotiation and no
   application changes.

   Typical use:

   {[
     (* writer side: describe the new format and how to roll it back *)
     let meta =
       Morph.meta v2_format
         ~xforms:[ Morph.xform ~target:v1_format retro_code ]
     in
     (* reader side *)
     let recv = Morph.Receiver.create () in
     Morph.Receiver.register recv v1_format my_v1_handler;
     ignore (Morph.Receiver.deliver recv meta incoming_value)
   ]} *)

module Breaker = Breaker
module Diff = Diff
module Pool = Pool
module Maxmatch = Maxmatch
module Xform = Xform
module Plan = Plan
module Receiver = Receiver

open Pbio

(* Writer-side helpers *)

let xform ?source ~(target : Ptype.record) (code : string) : Meta.xform_spec =
  { Meta.source; target; code }

let meta ?(xforms = []) (body : Ptype.record) : Meta.format_meta =
  let n = List.length xforms in
  if n > Meta.max_xforms then
    invalid_arg
      (Fmt.str "Morph.meta: %d transformations, more than the %d a meta may carry" n
         Meta.max_xforms);
  (match Ptype.validate body with
   | Ok () -> ()
   | Error e -> invalid_arg (Fmt.str "Morph.meta: %s: %s" e.Ptype.where e.Ptype.what));
  List.iter
    (fun (x : Meta.xform_spec) ->
       match Ptype.validate x.target with
       | Ok () -> ()
       | Error e ->
         invalid_arg (Fmt.str "Morph.meta: transformation target %s: %s"
                        e.Ptype.where e.Ptype.what))
    xforms;
  { Meta.body; xforms }

(* Writer-side sanity check: compile every attached transformation once so a
   broken snippet is reported at registration, not at receivers. *)
let check_meta (m : Meta.format_meta) : (unit, Err.t) result =
  let rec go = function
    | [] -> Ok ()
    | (x : Meta.xform_spec) :: rest ->
      (* A chained spec compiles against its declared source, not the base
         format — exactly as the receiver will compile it. *)
      let source = Option.value x.source ~default:m.Meta.body in
      (match Xform.check ~source x with
       | Ok () -> go rest
       | Error _ as e -> e)
  in
  go m.Meta.xforms

(* One-shot morphing without a receiver: convert [value] of format
   [m.body] into [target] using the attached transformations and structural
   conversion, if the thresholds allow it.  The path is the one a receiver
   of [target] plans; [engine] runs its hops (the interpreter is the
   reference the oracles and benchmarks check compiled deliveries
   against). *)
let morph_to ?(thresholds = Maxmatch.default_thresholds) ?engine
    (m : Meta.format_meta) ~(target : Ptype.record) (value : Value.t) :
  (Value.t, Err.t) result =
  let r = Receiver.create ~config:(Receiver.Config.v ~thresholds ()) () in
  Receiver.register r target ignore;
  match Receiver.plan ?engine r m with
  | Error reason -> Error (`No_match reason)
  | Ok p ->
    (match Plan.transform p value with
     | v -> Ok v
     | exception Plan.Failed (Transform msg) ->
       Error (`No_match (Fmt.str "transformation failed: %s" msg)))
