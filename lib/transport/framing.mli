(** Frames carried by the simulated network: out-of-band format meta-data,
    PBIO-encoded records, meta-data re-requests for recovery, the
    sequence-numbered envelope + acknowledgement used by reliable
    endpoints, and the trace-context envelope used to propagate
    {!Obs.Trace} contexts across the wire. *)

type frame =
  | Meta of {
      format_id : int;
      meta : string;  (** {!Pbio.Meta.encode} output *)
    }
  | Data of {
      format_id : int;
      message : string;  (** a complete {!Pbio.Wire.encode} message *)
    }
  | Meta_request of { format_id : int }
  | Ack of { seq : int }  (** acknowledges the {!Reliable} frame [seq] *)
  | Reliable of {
      seq : int;
      frame : frame;
          (** the enveloped frame; never itself [Reliable] or [Ack], but
              possibly [Traced] or [Described] *)
    }
  | Traced of {
      trace_id : int;
      parent_span : int;
      frame : frame;
          (** the enveloped frame; never itself [Reliable], [Traced] or
              [Ack], but possibly [Described] *)
    }
      (** Carries the sender's {!Obs.Trace.ctx} so the receiver parents
          its delivery spans under the sender's open span.  [Reliable]
          composes {e around} [Traced], never inside it: reliability is a
          per-hop concern, tracing an end-to-end one. *)
  | Described of {
      tenant : int;
      fingerprint : int;
          (** the sender's fingerprint of the inner message's wire format
              (see [Gateway.fingerprint]); lets the gateway route to a
              cached plan without decoding the body *)
      deadline_ns : int;
          (** absolute delivery deadline in nanoseconds of simulated time;
              [0] means no deadline.  Work past its deadline is shed
              before decode. *)
      frame : frame;  (** the enveloped frame; never itself an envelope or [Ack] *)
    }
      (** The gateway's self-describing envelope (docs/GATEWAY.md):
          enough routing and admission context — tenant, format
          fingerprint, deadline — to admit, shed or route a message
          without touching its payload.  [Reliable] and [Traced] may
          compose around [Described], never inside it. *)

exception Frame_error of string

(** Raises {!Frame_error} when asked to nest [Reliable]/[Ack] inside a
    reliable envelope, an envelope or [Ack] inside a traced or described
    envelope, or encode a negative trace context / tenant / fingerprint /
    deadline. *)
val encode : frame -> string

(** Total on untrusted input: malformed frames are [Error (`Frame _)]. *)
val decode : string -> (frame, Pbio.Err.t) result
