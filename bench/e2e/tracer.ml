(* The traced run's recorder.

   Spans come from the benchmark's own files, around calls into each
   layer's public functions: one root span per operation, so every span of
   an operation shares its trace id, and one child per layer call.  Spans
   go into an [Obs] registry on the monotonic clock; the first
   [export_ops] operations are kept for a Perfetto trace.  Aggregates over
   every operation (time, calls, allocation) are kept here, beside the
   spans, and GC phase time per domain comes from Runtime_events. *)

type layer =
  | Framing  (** shadow: Transport.Framing.decode *)
  | Meta_key  (** shadow: Meta.hash + Meta.equal, the receiver cache key *)
  | Plan_lookup  (** shadow: Codec.read_header + the codec plan-cache lookup *)
  | Codec  (** shadow: wire decode, fused with the conversion when the path fuses *)
  | Ecode  (** shadow: the compiled transformation chain, then any final conversion *)
  | Handler  (** shadow: the benchmark's delivery handler *)
  | Entry  (** real: deliver_wire, handle_frame, or the pooled fan-out batch *)
  | Inline_batch  (** real: the same fan-out batch without the pool *)
  | Advance  (** real: Netsim.advance (fires compiles and parked drains) *)
  | Transport  (** real: the Framing.decode feeding the entry call *)
  | Meta_push  (** real: a gateway meta push (decode + handle_frame) *)

let all =
  [| Framing; Meta_key; Plan_lookup; Codec; Ecode; Handler; Entry; Inline_batch;
     Advance; Transport; Meta_push |]

let index = function
  | Framing -> 0
  | Meta_key -> 1
  | Plan_lookup -> 2
  | Codec -> 3
  | Ecode -> 4
  | Handler -> 5
  | Entry -> 6
  | Inline_batch -> 7
  | Advance -> 8
  | Transport -> 9
  | Meta_push -> 10

let span_name = function
  | Framing -> "shadow.framing.decode"
  | Meta_key -> "shadow.meta.key"
  | Plan_lookup -> "shadow.codec.plan_lookup"
  | Codec -> "shadow.codec.decode"
  | Ecode -> "shadow.ecode.run"
  | Handler -> "shadow.handler"
  | Entry -> "entry"
  | Inline_batch -> "fanout.deliver_batch.inline"
  | Advance -> "netsim.advance"
  | Transport -> "framing.decode"
  | Meta_push -> "gateway.meta_push"

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- GC phase time per domain -------------------------------------------- *)

let max_domains = 128

(* Time a domain spends inside a collection or the stop-the-world barrier
   around one: the outermost of these phases, nested ones not double
   counted. *)
let gc_phase : Runtime_events.runtime_phase -> bool = function
  | EV_MINOR | EV_MAJOR | EV_MAJOR_SLICE | EV_STW_LEADER | EV_STW_HANDLER -> true
  | _ -> false

type gc = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  busy_ns : float array;
  lost : int ref;
}

let gc_create () =
  Runtime_events.start ();
  let depth = Array.make max_domains 0 in
  let since = Array.make max_domains 0L in
  let busy_ns = Array.make max_domains 0. in
  let lost = ref 0 in
  let valid d = d >= 0 && d < max_domains in
  let runtime_begin d ts ph =
    if valid d && gc_phase ph then begin
      if depth.(d) = 0 then since.(d) <- Runtime_events.Timestamp.to_int64 ts;
      depth.(d) <- depth.(d) + 1
    end
  in
  let runtime_end d ts ph =
    if valid d && gc_phase ph && depth.(d) > 0 then begin
      depth.(d) <- depth.(d) - 1;
      if depth.(d) = 0 then
        busy_ns.(d) <-
          busy_ns.(d)
          +. Int64.to_float (Int64.sub (Runtime_events.Timestamp.to_int64 ts) since.(d))
    end
  in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let g = { cursor = Runtime_events.create_cursor None; callbacks; busy_ns; lost } in
  (* drain what was emitted before the window, then start from zero *)
  ignore (Runtime_events.read_poll g.cursor g.callbacks None : int);
  Array.fill busy_ns 0 max_domains 0.;
  g

let gc_poll g = ignore (Runtime_events.read_poll g.cursor g.callbacks None : int)

(* --- recorder ------------------------------------------------------------ *)

type t = {
  reg : Obs.t;
  sum_ns : float array;
  calls : int array;
  alloc_bytes : float array;
  hists : Hist.t array;
  export_ops : int;
  poll_every : int;  (** ops between Runtime_events polls *)
  mutable ops : int;
  mutable exported : Obs.Trace.span list;
  gc : gc;
}

(* [per_op] deliveries per operation: the ring is polled every 64
   deliveries, so a fan-out batch's GC events do not overflow it. *)
let create ~label ~export_ops ~per_op =
  let reg = Obs.create ~label () in
  Obs.set_registry_clock reg (fun () -> Int64.to_float (Monotonic_clock.now ()));
  Obs.Trace.set_capacity reg (1 lsl 17);
  let n = Array.length all in
  {
    reg;
    sum_ns = Array.make n 0.;
    calls = Array.make n 0;
    alloc_bytes = Array.make n 0.;
    hists = Array.init n (fun _ -> Hist.create ());
    export_ops;
    poll_every = max 1 (64 / per_op);
    ops = 0;
    exported = [];
    gc = gc_create ();
  }

(* Record one call of [layer] that ran from [t0] to [t1]. *)
let mark t layer t0 t1 =
  let i = index layer in
  t.sum_ns.(i) <- t.sum_ns.(i) +. float_of_int (t1 - t0);
  t.calls.(i) <- t.calls.(i) + 1;
  Hist.record t.hists.(i) (t1 - t0);
  Obs.Trace.record t.reg (span_name layer) ~start_ns:(float_of_int t0)
    ~end_ns:(float_of_int t1)

let word_bytes = float_of_int (Sys.word_size / 8)

(* [words] is a [Gc.minor_words] difference.  Blocks over 256 words (a
   9 KB string copy, a 1000-member array) go straight to the major heap
   and are not counted: the runtime brings its major counters up to date
   only at collections, so they cannot be read per call. *)
let add_alloc t layer ~words =
  let i = index layer in
  t.alloc_bytes.(i) <- t.alloc_bytes.(i) +. (words *. word_bytes)

(* One operation: a root span every layer call inside [f] parents to. *)
let operation t name f =
  Obs.Trace.with_span t.reg name f;
  t.ops <- t.ops + 1;
  if t.ops = t.export_ops then t.exported <- Obs.Trace.spans t.reg;
  if t.ops mod t.poll_every = 0 then gc_poll t.gc

let calls t layer = t.calls.(index layer)
let total_ns t layer = t.sum_ns.(index layer)

let mean_ns t layer =
  let c = calls t layer in
  if c = 0 then 0. else total_ns t layer /. float_of_int c

let p50_ns t layer = Hist.quantile t.hists.(index layer) 0.5

let mean_alloc t layer =
  let c = calls t layer in
  if c = 0 then 0. else t.alloc_bytes.(index layer) /. float_of_int c

(* Spans of the first [export_ops] operations (all of them when the run
   was shorter) as Chrome trace-event JSON, loadable in Perfetto. *)
let chrome_json t =
  let spans = if t.exported = [] then Obs.Trace.spans t.reg else t.exported in
  Obs.Trace.to_chrome_json (Obs.Trace.assemble spans)

let gc_busy_ns t =
  gc_poll t.gc;
  t.gc.busy_ns

let gc_lost t = !(t.gc.lost)
