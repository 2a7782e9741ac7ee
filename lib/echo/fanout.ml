(* Sharded event fan-out: deliver a batch of wire messages to many sinks,
   spreading the sinks across a domain pool.

   The unit of parallelism is the *sink*, never the message: worker [k]
   owns the sinks at indices [i mod width = k] and runs every message
   through each of its sinks in message order.  A sink's receiver is
   therefore touched by exactly one domain per batch (and batches are
   synchronous rendezvous), so its pipeline cache needs no locking — it
   just needs its wire decodes to go through domain-safe plan caches,
   which is what the per-sink [Ctx.t] is for.  The outcome matrix is a
   pure function of (sinks, messages), independent of the pool width:
   [~pool:None] and any [--domains N] produce identical outcomes. *)

open Pbio

type sink = {
  name : string;
  receiver : Morph.Receiver.t;
}

let sink ~name receiver = { name; receiver }

let deliver_sink (s : sink) (meta : Meta.format_meta)
    (messages : string array) : Morph.Receiver.outcome array =
  Array.map (fun msg -> Morph.Receiver.deliver_wire s.receiver meta msg) messages

let deliver_batch ?pool ~(sinks : sink array) (meta : Meta.format_meta)
    (messages : string array) : Morph.Receiver.outcome array array =
  match pool with
  | None -> Array.map (fun s -> deliver_sink s meta messages) sinks
  | Some p -> Morph.Pool.map p (fun s -> deliver_sink s meta messages) sinks

let delivered_count (outcomes : Morph.Receiver.outcome array array) : int =
  Array.fold_left
    (fun acc row ->
       Array.fold_left
         (fun acc o ->
            match o with
            | Morph.Receiver.Delivered _ -> acc + 1
            | Morph.Receiver.Defaulted | Morph.Receiver.Rejected _ -> acc)
         acc row)
    0 outcomes
