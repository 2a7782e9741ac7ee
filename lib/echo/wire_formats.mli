(** The message formats of the ECho event-delivery scenario (paper,
    Section 4.1, Figures 4 and 5), plus the workload generators used by the
    examples, the tests and every benchmark reproducing the paper's
    evaluation. *)

open Pbio

(** {1 Formats} *)

(** The CMcontact_info analogue: [{ host; port }]. *)
val contact_info : Ptype.record

(** v2.0 member entry: contact info, channel ID and role booleans
    (Figure 4.b). *)
val member_v2 : Ptype.record

(** v1.0 member entry: contact info and channel ID only (Figure 4.a). *)
val member_v1 : Ptype.record

val channel_open_response_v2 : Ptype.record
val channel_open_response_v1 : Ptype.record
val channel_open_request : Ptype.record
val event_msg : Ptype.record

(** ECho 2.0 events add a delivery priority (morphing on the hot path). *)
val event_msg_v2 : Ptype.record

(** {1 The Figure 5 retro-transformation} *)

(** The paper's Figure 5 Ecode, verbatim in shape. *)
val response_v2_to_v1_code : string

(** v2.0 meta-data with the Figure 5 transformation attached. *)
val response_v2_meta : Meta.format_meta

val response_v1_meta : Meta.format_meta

(** The equivalent XSLT stylesheet — the Figure 10 baseline. *)
val response_v2_to_v1_stylesheet : string

(** Event roll-back: folds the v2 priority into the payload text. *)
val event_v2_to_v1_code : string

val event_v2_meta : Meta.format_meta
val event_v1_meta : Meta.format_meta

(** {1 Value builders} *)

val member_v2_value :
  host:string -> port:int -> id:int -> is_source:bool -> is_sink:bool -> Value.t

val member_v1_value : host:string -> port:int -> id:int -> Value.t
val response_v2_value : channel:string -> Value.t list -> Value.t

val request_value :
  channel:string -> host:string -> port:int -> id:int -> as_source:bool ->
  as_sink:bool -> Value.t

val event_value :
  channel:string -> seq:int -> origin:string * int -> payload:string -> Value.t

val event_v2_value :
  channel:string -> seq:int -> origin:string * int -> priority:int ->
  payload:string -> Value.t

(** {1 Workload generation} *)

val gen_response_v2 : int -> Value.t

val gen_response_v2_full : int -> Value.t

(** Member count so the unencoded v2.0 response is close to the requested
    byte size (the x-axis of Figures 8-10 / rows of Table 1). *)
val members_for_unencoded_bytes : int -> int
