(** Zero-dependency metrics and tracing for the morphing stack.

    A {!t} is a registry of named counters, gauges and fixed-bucket
    histograms.  Instrumented code holds pre-created {e handles} rather
    than looking metrics up by name on the hot path; every handle
    operation is a single mutable-field update guarded by one boolean,
    so a disabled registry ({!null}) costs one branch per event.

    Latencies are measured with {!with_span}, which times a thunk with
    the registry clock and records the duration (in nanoseconds) into a
    histogram named after the current span {e path}: nested spans
    concatenate their names with ["/"], so a span ["plan"] opened inside
    a span ["deliver"] records into the metric ["span:deliver/plan"],
    giving a flat registry the shape of a trace tree.

    Snapshots leave the registry through a {!sink}: a pretty text table,
    line-oriented JSON (one metric per line, the same schema the bench
    trajectory files use), or nothing. *)

type t
(** A metric registry.  Registries are independent; components accept
    one at construction time and default to {!null}. *)

val create : ?label:string -> unit -> t
(** A fresh, enabled registry.  [label] (default ["main"]) names the
    node this registry instruments; it becomes the [node] field of every
    trace span recorded here and the process name in Perfetto. *)

val null : t
(** The shared disabled registry.  Handles minted from it are inert:
    recording into them is a no-op and they register nothing. *)

val enabled : t -> bool

val reset : t -> unit
(** Zero every metric in [t] without forgetting registrations, and
    discard all recorded trace spans. *)

val set_registry_clock : t -> (unit -> float) -> unit
(** Replace [t]'s clock.  The clock returns nanoseconds as a float; it
    only needs to be monotonic between the start and end of a span.  The
    default is the system's monotonic clock, in ns.  Each registry has its own
    clock so one simulated node (or one test) cannot leak virtual time
    into another.  No-op on {!null}. *)

val now : t -> float
(** Read [t]'s clock (nanoseconds). *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src]'s metrics into [into]: counters
    add, delta gauges ({!Gauge.add}) sum, set gauges take [src]'s value
    when it was ever set, histograms add bucket-wise (count, sum, min,
    max included).  Entries missing from [into] are registered on first
    merge, preserving [src]'s registration order, so merging per-domain
    registries into a fresh one yields their union.  Labeled series
    ({!Labeled}) merge like any other entry — shard-disjoint label sets
    union, matching series (including the reserved ["other"] overflow
    series) aggregate — and family registrations are carried over;
    cardinality caps apply at record time per shard, never at merge.
    Call it at {e scrape} time, from the domain that owns [into], after
    the domains owning the sources have been joined (see
    docs/CONCURRENCY.md).  Raises [Invalid_argument] on a metric- or
    family-kind clash or histogram-bucket mismatch; no-op when [into] is
    {!null}. *)

val merged : ?label:string -> t list -> t
(** [merged ts] is a fresh registry with every [t] in [ts] merged in,
    left to right — the scrape-time aggregate of per-domain shards. *)

module Counter : sig
  type h
  (** Handle to a monotonically increasing integer. *)

  val make : t -> ?unit_:string -> string -> h
  (** [make t name] registers (or re-attaches to) the counter [name].
      Raises [Invalid_argument] if [name] is already registered with a
      different metric kind. *)

  val incr : h -> unit
  val add : h -> int -> unit

  val value : t -> string -> int
  (** Current value, or [0] when [name] was never registered. *)
end

module Gauge : sig
  type h
  (** Handle to a float: last-write-wins via {!set}, or an up/down
      accumulator via {!add}. *)

  val make : t -> ?unit_:string -> string -> h
  val set : h -> float -> unit

  val add : h -> float -> unit
  (** [add h d] moves the gauge by [d] (negative to decrease).  A gauge
      driven by [add] merges by {e summing} across shards in
      {!merge_into}, so depth-style gauges (queue occupancy, parked
      messages) maintained as deltas on per-domain registries report the
      true total at scrape time — a read-modify-write around {!set}
      would keep only one shard's last write.  A later {!set} switches
      the gauge back to last-write-wins merging. *)

  val value : t -> string -> float option
  (** [None] until the gauge is first set. *)
end

module Histogram : sig
  type h
  (** Handle to a fixed-bucket histogram. *)

  type snapshot = {
    count : int;
    sum : float;
    min : float;  (** 0. when [count = 0] *)
    max : float;  (** 0. when [count = 0] *)
    buckets : (float * int) list;
        (** cumulative-free per-bucket counts, keyed by inclusive upper
            bound; the final bucket's bound is [infinity]. *)
  }

  val make : t -> ?unit_:string -> ?buckets:float list -> string -> h
  (** [make t name] registers histogram [name].  [buckets] lists the
      inclusive upper bounds in ascending order (an implicit [+inf]
      bucket is always appended); defaults to powers of ten from 100 ns
      to 1 s. *)

  val observe : h -> float -> unit

  val snapshot : t -> string -> snapshot option
  val count : t -> string -> int
  val sum : t -> string -> float

  val quantile : snapshot -> float -> float
  (** [quantile s q] estimates the [q]-quantile (0 to 1) of the recorded
      observations from the bucket counts: the upper bound of the bucket
      holding the rank-[ceil (q * count)] sample, clamped to
      [\[s.min, s.max\]].  Deterministic for a given snapshot, so golden
      tests can assert on it.  Every input is defined: 0. when the
      histogram is empty, the one observed value (for any [q], including
      p999) on a single-sample snapshot, and [q] values outside [\[0, 1\]]
      — or NaN — clamp to the nearest end of the range. *)
end

(** {1 Labeled families}

    A {e family} is one registration covering many {e series}, each
    keyed by a tuple of label values: [gateway.tenant.shed{tenant="3",
    reason="quota"}].  Series are ordinary registry entries named with
    the composed prometheus-syntax string, so they merge, reset and
    render through every existing path unchanged.

    Cardinality is bounded per family: once [cardinality] distinct
    tuples exist in a registry, further tuples spill into a reserved
    series whose every label value is ["other"], and each spilled lookup
    increments the plain counter [obs.label_overflow].  ["other"] is
    therefore a reserved label value: asking for it explicitly addresses
    the overflow series directly (never counts against the cap or as a
    spill).  The cap applies at record time per registry — merging
    shard registries with disjoint label sets may legitimately union to
    more series than one shard's cap.

    Hot paths should resolve a series handle once and memoize it; the
    [*_series] functions cost one hashtable probe plus a string build.
    Families minted from {!null} are inert, as are their handles. *)

module Labeled : sig
  type counter
  type histogram

  val counter :
    t -> ?unit_:string -> ?cardinality:int -> keys:string list -> string ->
    counter
  (** [counter t ~keys name] registers (or re-attaches to) the counter
      family [name] with label keys [keys] (non-empty, [A-Za-z0-9_]).
      Raises [Invalid_argument] on a kind or key-tuple clash with an
      existing family of the same name. *)

  val histogram :
    t ->
    ?unit_:string ->
    ?buckets:float list ->
    ?cardinality:int ->
    keys:string list ->
    string ->
    histogram

  val counter_series : counter -> string list -> Counter.h
  (** [counter_series fam values] is the handle for the series keyed by
      [values] (arity must match the family's [keys]; raises otherwise).
      Memoize it on hot paths. *)

  val histogram_series : histogram -> string list -> Histogram.h

  val incr : counter -> string list -> unit
  (** One-shot [resolve + incr] for cold paths. *)

  val add : counter -> string list -> int -> unit
  val observe : histogram -> string list -> float -> unit

  val series_count : t -> string -> int
  (** Distinct non-overflow series the family [name] holds in this
      registry ([0] for unknown families). *)

  val overflowed : t -> int
  (** Value of [obs.label_overflow]: spilled lookups across all
      families of this registry. *)
end

val ratio_buckets : float list
(** Buckets suited to mismatch ratios in [\[0, 1\]]. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] times [f ()] and records the duration in ns
    into the histogram ["span:" ^ path] where [path] joins the names of
    all open spans with ["/"].  It {e also} records a trace span (see
    {!Trace}) as a child of the innermost open trace span.  The
    duration is recorded (and the span popped) even when [f] raises,
    and the exception is re-raised with its backtrace.  A path's
    histogram is resolved the first time the path is entered, so a
    later call builds no string.  On {!null} this is just [f ()]. *)

(** {1 Distributed tracing}

    Alongside the flat span histograms, every enabled registry keeps a
    bounded ring buffer of span {e instances}: trace id, span id, parent
    id, start/end timestamps from the registry clock, and string
    attributes.  Contexts propagate across the simulated wire via
    [Transport.Framing.Traced]; {!Trace.assemble} merges the buffers of
    many registries (one per simulated node) back into trees. *)

module Trace : sig
  type ctx = { trace_id : int; span_id : int }
  (** The propagated part of a span: enough to parent a remote child. *)

  type span = {
    trace_id : int;
    span_id : int;
    parent_id : int option;  (** [None] for a trace root *)
    name : string;
    node : string;  (** the [label] of the recording registry *)
    start_ns : float;
    end_ns : float;
    attrs : (string * string) list;  (** in the order they were added *)
  }

  val current : t -> ctx option
  (** Context of the innermost open trace span, to be carried across a
      process boundary.  [None] when no span is open (or on {!null}). *)

  val with_span :
    ?ctx:ctx ->
    ?start_ns:float ->
    ?attrs:(string * string) list ->
    t ->
    string ->
    (unit -> 'a) ->
    'a
  (** Trace-only variant of {!Obs.with_span}: records a span instance
      but no histogram (so it never perturbs existing [span:*] metric
      names).  [ctx] explicitly parents the span — use it when
      continuing a context received from the wire; otherwise the
      innermost open span is the parent, and a fresh trace id is minted
      at top level.  [start_ns] is the span's start when the caller has
      just read the registry clock (default: read it again).  The ring
      keeps [attrs] by reference, so a caller may build the list once
      and pass it to every span.  On {!null} this is just [f ()]. *)

  val record :
    ?ctx:ctx ->
    ?attrs:(string * string) list ->
    t ->
    string ->
    start_ns:float ->
    end_ns:float ->
    unit
  (** Record an already-timed span (e.g. a network hop whose arrival
      time the simulator computed) without opening it on the stack. *)

  val add_attr : t -> string -> string -> unit
  (** Attach [key = value] to the innermost open span.  No-op when no
      span is open or on {!null}. *)

  val spans : t -> span list
  (** Buffered spans, oldest first. *)

  val set_capacity : t -> int -> unit
  (** Resize the ring buffer, discarding buffered spans.  Default
      capacity is 4096 spans; 0 disables buffering.  The ring allocates
      its slots as spans arrive, doubling up to the capacity.  No-op on
      {!null}. *)

  val capacity : t -> int

  val dropped : t -> int
  (** Spans overwritten since the last {!clear}/[reset].  The ring also
      exports its own health as ordinary metrics, registered lazily on
      the first buffered span: the counter [obs.spans_dropped] mirrors
      this value and the gauge [obs.trace_buffer_depth] mirrors the live
      occupancy, so span loss shows up in scrapes without the Trace
      API. *)

  val clear : t -> unit
  (** Drop all buffered spans and abandon open ones. *)

  (** {2 Assembly} *)

  type tree = { span : span; children : tree list }
  (** Children are sorted by [start_ns]. *)

  type trace = {
    id : int;  (** the shared [trace_id] *)
    roots : tree list;
        (** true roots first, then orphaned subtrees, by start time *)
    orphans : span list;
        (** spans whose parent never surfaced (lost frame, ring
            overflow) or that sat on a parent cycle; they still appear
            under [roots] *)
    duplicates : int;  (** spans dropped for reusing a span id *)
    span_count : int;
  }

  val assemble : span list -> trace list
  (** Merge span dumps from any number of registries into per-trace
      trees, sorted by start time.  Never raises on malformed input:
      duplicates are counted and dropped, orphans are kept and flagged,
      cycles are broken. *)

  val trace_spans : trace -> span list
  (** All spans of an assembled trace, preorder. *)

  (** {2 Exporters} *)

  val to_chrome_json : trace list -> string
  (** Chrome trace-event JSON ("JSON Object Format"), loadable in
      Perfetto ({:https://ui.perfetto.dev}) or [chrome://tracing].  Node
      labels become processes; each trace gets its own [tid] row;
      attributes and ids land in each event's ["args"]. *)

  val to_waterfall : trace list -> string
  (** Plain-text waterfall: one indented line per span with start/end
      milliseconds relative to the trace start. *)
end

(** {1 Flight recorder}

    A post-mortem tool built on the trace ring: when an anomaly fires
    (breaker trip, shed burst, quarantine, eviction storm — hooks live
    in [Gateway], [Morph.Breaker] and [Morph.Receiver]), {!Flight.trigger}
    freezes the registry's buffered spans and a metrics snapshot into a
    bounded incident buffer.  Incidents export as Chrome-trace JSON
    (Perfetto-loadable) and as a text report; [morphctl] writes both to
    disk.  Triggers on a full buffer only count as suppressed, so an
    anomaly storm cannot grow memory without bound. *)

module Flight : sig
  type incident = {
    seq : int;  (** 1-based trigger order *)
    kind : string;  (** e.g. ["breaker_trip"], ["shed_burst"] *)
    reason : string;  (** free-form detail, e.g. the tenant id *)
    at_ns : float;  (** registry clock at trigger time *)
    spans : Trace.span list;  (** the ring's contents, oldest first *)
    metrics : string;  (** {!to_json_lines} snapshot at trigger time *)
  }

  type recorder

  val create : t -> recorder
  (** Recorder over a registry, holding up to 8 incidents.  Registers the
      counters [obs.flight.incidents] and [obs.flight.suppressed].  A
      recorder over {!null} is inert. *)

  val trigger : recorder -> kind:string -> reason:string -> unit
  (** Capture an incident now, or count it as suppressed when the
      buffer already holds 8.  No-op on {!null}. *)

  val incidents : recorder -> incident list
  (** Captured incidents, oldest first. *)

  val count : recorder -> int
  val suppressed : recorder -> int

  val clear : recorder -> unit
  (** Drop captured incidents and the suppressed count (the cumulative
      counters in the registry are untouched). *)

  val to_chrome_json : incident -> string
  (** The incident's frozen spans as Perfetto-loadable Chrome-trace
      JSON (see {!Trace.to_chrome_json}). *)

  val report : incident -> string
  (** Text incident report: header, metrics snapshot, span waterfall. *)
end

(** {1 Sinks} *)

type sink =
  | Null
  | Text of (string -> unit)  (** receives a rendered table *)
  | Json of (string -> unit)  (** receives line-oriented JSON *)

val emit : t -> sink -> unit

val names : t -> string list
(** Registered metric names, in registration order. *)

val to_json_lines : t -> string
(** One JSON object per line, ["\n"]-terminated.  Schema:
    [{"metric":NAME,"kind":"counter","unit":U,"value":N}] for counters
    and gauges; histograms add ["count"], ["sum"], ["min"], ["max"] and
    ["buckets":[{"le":BOUND,"n":N},...]] with ["le":"+inf"] last. *)

val to_prometheus : t -> string
(** Prometheus text exposition.  Series sharing a base name (a labeled
    family, or a single plain metric) are grouped under one
    [# TYPE base kind] line in registration order; metric names are
    sanitized to [\[a-zA-Z0-9_:\]] (dots become underscores) while label
    pairs from composed series names pass through verbatim.  Histograms
    emit cumulative [_bucket{le="..."}] series (["+Inf"] last) plus
    [_sum] and [_count]; never-set gauges read 0. *)
