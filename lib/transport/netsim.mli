(** A deterministic discrete-event network simulator (DESIGN.md,
    substitution S3).

    Message delivery costs a per-link latency plus a serialisation delay
    proportional to message size; links are FIFO (like the stream
    connections PBIO runs over) and can be taken down for failure
    injection.  Time is simulated seconds.

    Every link can additionally run under a seeded probabilistic fault
    profile — frame loss, duplication, reordering and latency jitter — and
    node groups can be partitioned for a timed window of simulated time.
    Drops are accounted per reason, an optional trace hook observes the
    traffic, and the same event queue drives virtual-clock timers (what the
    connection layer's retransmission and backoff logic runs on).  See
    docs/FAULTS.md. *)

type link_state =
  | Up
  | Down

type config = {
  latency_s : float;  (** one-way propagation delay *)
  bandwidth_bytes_per_s : float;
}

(** Per-link fault profile.  Probabilities are per frame; [jitter_s] adds a
    uniform extra delay in [0, jitter_s]; a reordered frame escapes the
    link's FIFO ordering and lingers so later frames overtake it. *)
type faults = {
  loss : float;
  duplication : float;
  reorder : float;
  jitter_s : float;
}

val no_faults : faults

type handler = src:Contact.t -> string -> unit

type drop_reason =
  | Unknown_destination
  | Link_down  (** downed link or active partition *)
  | Injected_loss
  | Queue_overflow

val pp_drop_reason : Format.formatter -> drop_reason -> unit

type stats = {
  mutable messages : int;  (** delivered *)
  mutable bytes : int;
  mutable duplicated : int;  (** extra copies injected by the fault model *)
  mutable drops_unknown_dst : int;
  mutable drops_link_down : int;
  mutable drops_loss : int;
  mutable drops_overflow : int;
}

(** Total drops across all reasons. *)
val dropped : stats -> int

type trace_event =
  | Trace_sent of {
      src : Contact.t;
      dst : Contact.t;
      bytes : int;
      arrival : float;
    }
  | Trace_delivered of {
      src : Contact.t;
      dst : Contact.t;
      bytes : int;
    }
  | Trace_dropped of {
      src : Contact.t;
      dst : Contact.t;
      reason : drop_reason;
    }
  | Trace_duplicated of {
      src : Contact.t;
      dst : Contact.t;
    }
  | Trace_timer_fired of { at : float }

type t

exception Duplicate_node of Contact.t

(** [seed] drives the fault model's RNG; runs with equal seeds and equal
    fault profiles replay identically.  [metrics] mirrors {!stats} into an
    Obs registry ([netsim.delivered], [netsim.bytes], [netsim.duplicated],
    the labeled family [netsim.drops] keyed by [reason] —
    [unknown_dst] / [link_down] / [loss] / [overflow] —
    and [netsim.timers_fired]); defaults to [Obs.null]. *)
val create : ?config:config -> ?seed:int -> ?metrics:Obs.t -> unit -> t

val now : t -> float
val stats : t -> stats
val add_node : t -> Contact.t -> handler -> unit
val set_link : t -> src:Contact.t -> dst:Contact.t -> link_state -> unit

(** Fault injection: when set, every delivered payload passes through the
    function first (bit flips, truncation, ...).  [None] clears it. *)
val set_corruption : t -> (string -> string) option -> unit

(** Default fault profile for every link without an override. *)
val set_faults : t -> faults -> unit

(** Per-link override of the default profile; [None] clears it. *)
val set_link_faults : t -> src:Contact.t -> dst:Contact.t -> faults option -> unit

(** Cap the number of frames in flight per (src, dst) link; sends beyond it
    drop as {!Queue_overflow}.  [None] (the default) is unbounded. *)
val set_link_capacity : t -> int option -> unit

(** Observe every send, delivery, duplication, drop and timer firing. *)
val set_trace : t -> (trace_event -> unit) option -> unit

(** Sever every link between the two groups during [start, stop) of
    simulated time (both directions).  Whether a frame crosses is decided
    at send time; partition drops count as {!Link_down}. *)
val add_partition :
  t ->
  group_a:Contact.t list ->
  group_b:Contact.t list ->
  start:float ->
  stop:float ->
  unit

(** Queue a message; unknown destinations, downed or partitioned links,
    injected losses and full link queues drop silently, each counted under
    its {!drop_reason}. *)
val send : t -> src:Contact.t -> dst:Contact.t -> string -> unit

(** Like {!send}, but reports the scheduled arrival time of the (first
    copy of the) frame in simulated seconds, or [None] when it was
    dropped at send time.  The connection layer uses this to time
    network-hop trace spans without peeking into the event queue. *)
val send_arrival :
  t -> src:Contact.t -> dst:Contact.t -> string -> float option

(** Schedule a callback [delay] simulated seconds from now.  Timers share
    the event queue with frames, so {!step}, {!run} and {!advance} drive
    them. *)
val after : t -> float -> (unit -> unit) -> unit

type run_result = {
  steps : int;
  quiesced : bool;  (** [false] when the run stopped at [max_steps] *)
}

(** Run until quiescent (handlers may send more messages); reports the
    number of events handled and whether the network actually drained or
    the run hit [max_steps]. *)
val run : ?max_steps:int -> t -> run_result

(** Process everything due within the next [dt] simulated seconds, then
    move the clock to exactly [now + dt]; returns the number of events
    handled. *)
val advance : t -> float -> int

val pending : t -> int
