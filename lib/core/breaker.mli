(** Per-pipeline circuit breaker: closed / open / half-open.

    Generalises the PR-2 receiver quarantine.  Three consecutive failures
    trip the breaker [Open]; with no cooldown it stays open for
    good (the old quarantine semantics), with a cooldown it turns
    [Half_open] after [cooldown_s] of (simulated) time and admits probe
    deliveries — a probe success closes the circuit, a probe failure
    re-opens it for another cooldown.

    Time is always passed in by the caller ([~now], seconds), so breakers
    are deterministic under [Transport.Netsim]'s virtual clock and the
    per-registry {!Obs} clocks (docs/GATEWAY.md). *)

type state = Closed | Open | Half_open

val pp_state : Format.formatter -> state -> unit

type t

(** [create ~cooldown_s ()] — trip after 3 consecutive failures.
    [cooldown_s] enables half-open probing; omit it for a permanently-open
    trip.  [on_trip] runs synchronously each time the breaker trips open,
    after the state change — the anomaly hook the {!Obs.Flight} recorder
    attaches to.  Raises [Invalid_argument] on a cooldown that is not
    positive. *)
val create : ?cooldown_s:float -> ?on_trip:(t -> unit) -> unit -> t

(** Whether a delivery may proceed at time [now].  [Closed] always admits;
    [Open] admits nothing until the cooldown elapses, then flips to
    [Half_open]; [Half_open] admits the delivery as a probe. *)
val admit : t -> now:float -> bool

(** Record a successful delivery.  Returns [true] when this closed a
    half-open circuit (a probe recovery). *)
val record_success : t -> bool

(** Record a failed delivery at time [now].  Returns [true] when this
    failure tripped the breaker open (threshold reached, or a half-open
    probe failed). *)
val record_failure : t -> now:float -> bool

val state : t -> state
val consecutive_failures : t -> int

(** Times the breaker tripped open over its lifetime. *)
val trips : t -> int
