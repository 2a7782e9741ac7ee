(** Chaos soak campaigns: the ECho pub/sub fleet and the B2B supply chain
    driven over a lossy network, with every endpoint running the
    connection layer's reliable envelope.

    Each case runs twice from the same seed — fault-free (the baseline)
    and under the fault profile — and checks that the faults were fully
    absorbed: every record eventually delivered exactly once, no escaped
    exceptions, and per-record morphing outcomes (the receiver's [via])
    identical to the baseline.  See docs/FAULTS.md. *)

type profile = {
  loss : float;  (** per-frame loss probability *)
  duplication : float;
  reorder : float;
  jitter_s : float;
  partition : bool;  (** sever one link pair for 20 ms mid-run *)
}

(** 5% loss, 2% duplication, 5% reordering, 300 us jitter, one partition. *)
val default_profile : profile

type failure = {
  case : int;
  seed : int;  (** the case's derived sub-seed, for standalone replay *)
  scenario : string;  (** ["echo"] or ["b2b"] *)
  reason : string;
}

type report = {
  cases : int;
  records_per_case : int;
  failures : failure list;
}

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit

(** Run [cases] chaos cases of [records] records each, alternating between
    the ECho and B2B scenarios, each case under a sub-seed derived from
    [seed].  Equal arguments replay identically. *)
val run : ?profile:profile -> seed:int -> cases:int -> records:int -> unit -> report
