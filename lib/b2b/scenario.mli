(** End-to-end supply-chain runs, used by the A4 ablation benchmark and the
    b2b example: N orders flow retailer -> broker -> supplier, each
    answered by a status flowing back, in either broker configuration. *)

type result = {
  mode : Broker.mode;
  orders : int;
  statuses_received : int;
  broker_transforms : int;
  receiver_morphs : int;
  network_bytes : int;
  network_messages : int;
  sim_seconds : float;
}

val pp_result : Format.formatter -> result -> unit

(** [metrics] is threaded through every component of the run — network,
    broker, retailer, supplier — so one registry collects the whole
    scenario's [netsim.*], [conn.*], [receiver.*] and [b2b.*] instruments.
    [ctx] likewise supplies every component's codec plan cache and the
    registry their wire calls and compiles record into
    (docs/CONCURRENCY.md); omitted, it is {!Pbio.Ctx.default}. *)
val run : ?orders:int -> ?metrics:Obs.t -> ?ctx:Pbio.Ctx.t -> Broker.mode -> result

(** The scenario {!result} plus the distributed traces assembled from every
    node's span buffer (one trace per order in [Morph_at_receiver] mode). *)
type traced = {
  result : result;
  traces : Obs.Trace.trace list;
}

(** Like {!run}, but with a tracing registry per node — labelled [retailer],
    [broker], [supplier] and [net] — all clocked to the network simulator so
    span timestamps are simulated nanoseconds.  [faults] applies a
    {!Transport.Netsim.faults} profile (pair it with [reliable:true] so lost
    frames are retransmitted rather than lost orders); [seed] drives the
    fault model's RNG.  Defaults: 5 orders, unreliable, no faults, seed 0. *)
val run_traced :
  ?orders:int ->
  ?reliable:bool ->
  ?faults:Transport.Netsim.faults ->
  ?seed:int ->
  Broker.mode ->
  traced

(** Multi-peer variant: [retailers] x [suppliers] through one broker, each
    retailer placing [orders_each] orders.  Returns per retailer the sorted
    order ids it placed and the sorted order ids its statuses answered —
    equal lists mean routing was correct. *)
val run_multi :
  ?retailers:int ->
  ?suppliers:int ->
  ?orders_each:int ->
  ?metrics:Obs.t ->
  Broker.mode ->
  (int list * int list) list
