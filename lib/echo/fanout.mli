(** Sharded event fan-out: run a batch of wire messages through many
    sinks, spreading the {e sinks} (never the messages) across a
    {!Morph.Pool}.

    Each sink is owned by exactly one domain per batch and sees messages
    in order, so per-sink receiver state needs no locking and the outcome
    matrix is a pure function of (sinks, messages) — identical with no
    pool, a width-1 pool, or any wider pool.  Give each sink's receiver a
    {!Pbio.Ctx.t} (its own, or one shared context — the plan cache is
    domain-safe) so wire decodes do not contend on {!Pbio.Ctx.default}'s
    cache.  See docs/CONCURRENCY.md. *)

open Pbio

type sink = {
  name : string;
  receiver : Morph.Receiver.t;
}

val sink : name:string -> Morph.Receiver.t -> sink

(** [deliver_batch ?pool ~sinks meta messages] returns the outcome
    matrix: element [(s, m)] is sink [s]'s outcome for message [m].
    Without [pool] the fan-out runs inline on the calling domain. *)
val deliver_batch :
  ?pool:Morph.Pool.t ->
  sinks:sink array ->
  Meta.format_meta ->
  string array ->
  Morph.Receiver.outcome array array

(** Number of [Delivered] outcomes in a matrix. *)
val delivered_count : Morph.Receiver.outcome array array -> int
