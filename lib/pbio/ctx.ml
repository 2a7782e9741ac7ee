(* The capability value threaded through the morphing stack: the codec
   plan cache, and the metrics registry that every compile and every
   wire call made through it records into, bundled into one explicit,
   passable value.

   Domain model: the cache inside a ctx is mutex-guarded and safe to
   share across domains; the Obs registry is NOT — a registry must be
   owned by one domain.  A ctx shared by several domains should
   therefore carry [Obs.null] (the default) and let each shard keep its
   own registry, merged at scrape time with [Obs.merge_into].  See
   docs/CONCURRENCY.md. *)

type wire_metrics = {
  wire_on : bool;
  wire_reg : Obs.t;
  encodes : Obs.Counter.h;
  decodes : Obs.Counter.h;
  decode_errors : Obs.Counter.h;
  bytes_out : Obs.Counter.h;
  bytes_in : Obs.Counter.h;
  encode_ns : Obs.Histogram.h;
  decode_ns : Obs.Histogram.h;
}

type compile_metrics = {
  compile_on : bool;
  compile_reg : Obs.t;
  convert_compiles : Obs.Counter.h;
  convert_ns : Obs.Histogram.h;
  ecode_compiles : Obs.Counter.h;
  ecode_errors : Obs.Counter.h;
  ecode_ns : Obs.Histogram.h;
  ecode_stmts : Obs.Histogram.h;
}

type t = {
  codecs : Codec.cache;
  wire : wire_metrics;
  compiles : compile_metrics;
}

(* Every handle is minted here, so a registry lists each series from the
   context's creation on, compiled into or not. *)
let create ?(metrics = Obs.null) () =
  {
    codecs = Codec.create_cache ~metrics ();
    wire =
      {
        wire_on = Obs.enabled metrics;
        wire_reg = metrics;
        encodes = Obs.Counter.make metrics "wire.encodes";
        decodes = Obs.Counter.make metrics "wire.decodes";
        decode_errors = Obs.Counter.make metrics "wire.decode_errors";
        bytes_out = Obs.Counter.make metrics ~unit_:"bytes" "wire.bytes_out";
        bytes_in = Obs.Counter.make metrics ~unit_:"bytes" "wire.bytes_in";
        encode_ns = Obs.Histogram.make metrics ~unit_:"ns" "wire.encode_ns";
        decode_ns = Obs.Histogram.make metrics ~unit_:"ns" "wire.decode_ns";
      };
    compiles =
      {
        compile_on = Obs.enabled metrics;
        compile_reg = metrics;
        convert_compiles = Obs.Counter.make metrics "convert.compiles";
        convert_ns = Obs.Histogram.make metrics ~unit_:"ns" "convert.compile_ns";
        ecode_compiles = Obs.Counter.make metrics "ecode.compiles";
        ecode_errors = Obs.Counter.make metrics "ecode.compile_errors";
        ecode_ns = Obs.Histogram.make metrics ~unit_:"ns" "ecode.compile_ns";
        ecode_stmts =
          Obs.Histogram.make metrics
            ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ]
            "ecode.stmt_count";
      };
  }

let default = create ()

let codecs t = t.codecs
let wire t = t.wire
let compiles t = t.compiles
