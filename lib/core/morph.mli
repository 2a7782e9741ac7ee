(** Message Morphing — public facade.

    The paper's primary contribution: combine out-of-band binary meta-data
    (PBIO format descriptions, {!Pbio}) with dynamically generated
    transformation code ({!Ecode}) so receivers convert incoming messages
    of unknown formats into formats they understand, with no negotiation
    and no application changes.

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

module Breaker : module type of Breaker
module Diff : module type of Diff
module Pool : module type of Pool
module Maxmatch : module type of Maxmatch
module Xform : module type of Xform
module Plan : module type of Plan
module Receiver : module type of Receiver

open Pbio

(** A retro-transformation spec: Ecode converting [source] (default: the
    base format of the meta it is attached to) into [target].  Specs with
    explicit sources form chains (Figure 1 lineages). *)
val xform : ?source:Ptype.record -> target:Ptype.record -> string -> Meta.xform_spec

(** Build format meta-data, validating the body and every transformation
    target.  Raises [Invalid_argument] on ill-formed formats and on more
    than {!Pbio.Meta.max_xforms} transformations. *)
val meta : ?xforms:Meta.xform_spec list -> Ptype.record -> Meta.format_meta

(** Compile every attached transformation once, so a broken snippet is
    reported at registration — at the writer, not at some receiver.
    Failures are [Error (`Xform _)]. *)
val check_meta : Meta.format_meta -> (unit, Err.t) result

(** One-shot morphing without a standing receiver: convert [value] of the
    meta's body format into [target] using the attached transformations
    and structural conversion, if the thresholds allow it.  The path is
    the one a {!Receiver} registered at [target] plans; [engine] (default
    [Compiled]) runs its hops, so [~engine:Interpreted] is the
    interpretive reference for a receiver's deliveries.  No acceptable
    morph path, or a transformation that fails on [value], is
    [Error (`No_match _)]. *)
val morph_to :
  ?thresholds:Maxmatch.thresholds ->
  ?engine:Xform.engine ->
  Meta.format_meta ->
  target:Ptype.record ->
  Value.t ->
  (Value.t, Err.t) result
