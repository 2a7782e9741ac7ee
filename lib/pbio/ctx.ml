(* The capability value threaded through the morphing stack: everything
   that used to be ambient process-global mutable state (the codec plan
   cache, the convert memo, the metrics registry wire/receiver record
   into) bundled into one explicit, passable value.

   Domain model: the caches inside a ctx are lock-striped/mutex-guarded
   and safe to share across domains; the Obs registry is NOT — a
   registry must be owned by one domain.  A ctx shared by several
   domains should therefore carry [Obs.null] (the default) and let each
   shard keep its own registry, merged at scrape time with
   [Obs.merge_into].  See docs/CONCURRENCY.md. *)

type t = {
  obs : Obs.t;
  codecs : Codec.cache;
  convs : Convert.memo;
}

let create ?(metrics = Obs.null) ?max_plans ?stripes () =
  {
    obs = metrics;
    codecs = Codec.create_cache ~metrics ?max_plans ?stripes ();
    convs = Convert.create_memo ();
  }

let v ?(metrics = Obs.null) ~codecs ~convs () =
  { obs = metrics; codecs; convs }

(* The compatibility shim: the ctx the no-argument code paths run in.
   Its caches are the pre-context process globals, so legacy calls and
   ctx-threaded calls over [default] observe the same cache state. *)
let default =
  { obs = Obs.null; codecs = Codec.default_cache; convs = Convert.default_memo }

let obs t = t.obs
let codecs t = t.codecs
let convs t = t.convs
