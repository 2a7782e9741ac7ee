(** Eviction-storm meter: tells the gateway when to shed new plan work.

    Counts plan-cache evictions over a rolling window of simulated
    seconds.  When evictions in one window exceed [shed_evictions] the
    cache is thrashing — a fresh plan would only evict another tenant's —
    so the gateway sheds messages that need a new plan until the storm
    decays.  Window rolls halve the count (exponential decay), so the
    signal clears gradually instead of flapping (docs/GATEWAY.md). *)

type config = {
  window_s : float;  (** accounting window, simulated seconds *)
  shed_evictions : int;
      (** plan-cache evictions per window beyond which new plan work is
          shed; 0 disables shedding *)
}

(** 50 ms window, shedding disabled. *)
val default : config

type t

(** Raises [Invalid_argument] on a non-positive window or negative
    [shed_evictions].  [now] anchors the first window (default 0). *)
val create : ?now:float -> config -> t

(** Note one plan-cache eviction at time [now]. *)
val note_eviction : t -> now:float -> unit

(** Whether new plan work should be shed at time [now]. *)
val overloaded : t -> now:float -> bool
