(** A deterministic discrete-event network simulator (DESIGN.md,
    substitution S3).

    Message delivery costs a per-link latency plus a serialisation delay
    proportional to message size; links are FIFO (like the stream
    connections PBIO runs over).  Time is simulated seconds.

    The network runs under one seeded probabilistic fault profile — frame
    loss, duplication, reordering and latency jitter — and node groups can
    be partitioned for a timed window of simulated time.  Drops are
    accounted per reason, and the same event queue drives virtual-clock
    timers (what the connection layer's retransmission and backoff logic
    runs on).  See docs/FAULTS.md. *)

type config = {
  latency_s : float;  (** one-way propagation delay *)
  bandwidth_bytes_per_s : float;
}

(** The network's fault profile.  Probabilities are per frame;
    [jitter_s] adds a uniform extra delay in [0, jitter_s]; a reordered
    frame escapes the link's FIFO ordering and lingers so later frames
    overtake it. *)
type faults = {
  loss : float;
  duplication : float;
  reorder : float;
  jitter_s : float;
}

val no_faults : faults

type handler = src:Contact.t -> string -> unit

type stats = {
  mutable messages : int;  (** delivered *)
  mutable bytes : int;
  mutable duplicated : int;  (** extra copies injected by the fault model *)
  mutable drops_unknown_dst : int;
  mutable drops_link_down : int;  (** active partition *)
  mutable drops_loss : int;
}

(** Total drops across all reasons. *)
val dropped : stats -> int

type t

exception Duplicate_node of Contact.t

(** [seed] drives the fault model's RNG; runs with equal seeds and equal
    fault profiles replay identically.  [metrics] mirrors {!stats} into an
    Obs registry ([netsim.delivered], [netsim.bytes], [netsim.duplicated],
    the labeled family [netsim.drops] keyed by [reason] —
    [unknown_dst] / [link_down] / [loss] —
    and [netsim.timers_fired]); defaults to [Obs.null]. *)
val create : ?config:config -> ?seed:int -> ?metrics:Obs.t -> unit -> t

val now : t -> float
val stats : t -> stats
val add_node : t -> Contact.t -> handler -> unit

(** Test seam: when set, every delivered payload passes through the
    function first (bit flips, truncation, ...).  [None] clears it.  It is
    the one way to destroy a chosen frame (the connection tests' lost
    [Meta_request] retries); scenarios inject faults with {!set_faults}. *)
val set_corruption : t -> (string -> string) option -> unit

(** The fault profile of every link (default {!no_faults}). *)
val set_faults : t -> faults -> unit

(** Sever every link between the two groups during [start, stop) of
    simulated time (both directions).  Whether a frame crosses is decided
    at send time; partition drops count as [drops_link_down]. *)
val add_partition :
  t ->
  group_a:Contact.t list ->
  group_b:Contact.t list ->
  start:float ->
  stop:float ->
  unit

(** Queue a message; unknown destinations, partitioned links and injected
    losses drop silently, each counted in {!stats}. *)
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
