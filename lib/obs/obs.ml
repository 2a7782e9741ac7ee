(* Metric registry with handle-based recording.

   The design constraint is the null path: PR acceptance requires the
   instrumented hot loops (wire codec, receiver cache) to regress < 2 %
   when observability is off.  So components never look metrics up by
   name per event; they mint handles once and every handle carries its
   own [on] flag.  The disabled registry hands out shared inert handles
   backed by dummy cells, making each disabled record one load, one
   branch. *)

(* Clocks are per registry so independent registries (one per simulated
   node, or one per test, or one per domain) cannot leak virtual time
   into each other.  There is deliberately no process-wide override: a
   registry belongs to one domain, and ambient mutable state would make
   that ownership rule unenforceable.  The default is the monotonic
   clock in ns: fine enough for the ~200 ns operations it times, and a
   wall-clock step can never end a span before it starts. *)
let default_clock () = Int64.to_float (Monotonic_clock.now ())

type counter_cell = { mutable n : int }

(* [gdelta] distinguishes gauges driven by up/down deltas ([Gauge.add])
   from last-write-wins gauges ([Gauge.set]): at merge time delta gauges
   sum across shards while set gauges keep the source value. *)
type gauge_cell = { mutable g : float; mutable gset : bool; mutable gdelta : bool }

type hist_cell = {
  bounds : float array; (* ascending upper bounds, excluding +inf *)
  hcounts : int array; (* length bounds + 1; last is the +inf bucket *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

type data =
  | Dcounter of counter_cell
  | Dgauge of gauge_cell
  | Dhist of hist_cell

type entry = { ename : string; eunit : string option; data : data }

(* A [with_span] path, resolved the first time it is entered: its
   ["span:" ^ path] histogram's [observe], and the paths one name
   deeper. *)
type span_node = {
  sn_path : string;
  sn_observe : float -> unit;
  sn_children : (string, span_node) Hashtbl.t;
}

(* A labeled-metric family: one registration covering many {e series},
   each keyed by a tuple of label values.  A series is an ordinary
   registry entry whose name is the composed ["family{k=\"v\",...}"]
   string, so every existing path (merge, reset, rendering, JSON) works
   on series unchanged.  [fam_series] counts distinct non-overflow
   series minted {e by this registry}; at [fam_cap] further tuples spill
   into the reserved all-["other"] series named [fam_other]. *)
type family = {
  fam_name : string;
  fam_keys : string list;
  fam_kind : string; (* "counter" | "histogram" *)
  fam_unit : string option;
  fam_buckets : float list; (* histogram families only *)
  fam_cap : int;
  fam_other : string;
  mutable fam_series : int;
}

let label_escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* ["family{k=\"v\",k2=\"v2\"}"] — exactly the prometheus series syntax,
   so composed names pass through the text exposition verbatim. *)
let compose_series name keys values =
  let buf = Buffer.create (String.length name + 16) in
  Buffer.add_string buf name;
  Buffer.add_char buf '{';
  let first = ref true in
  List.iter2
    (fun k v ->
       if !first then first := false else Buffer.add_char buf ',';
       Buffer.add_string buf k;
       Buffer.add_string buf "=\"";
       Buffer.add_string buf (label_escape v);
       Buffer.add_char buf '"')
    keys values;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* An open trace span.  [sp_parent] is 0 for a root; [sp_attrs] is the
   caller's list, kept as given, and [sp_extras] holds [add_attr]'s pairs
   newest-first.  The record lives only while the span is open. *)
type tr_span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_start : float;
  sp_attrs : (string * string) list;
  mutable sp_extras : (string * string) list;
}

(* The trace ring's slots, one array per span field, so a buffered span
   is scalars and shared pointers, never a block of its own that the ring
   would keep alive (and the GC promote) for the next [tr_cap] spans: ids
   in [int array]s, timestamps in [Float.Array]s, the name and both
   attribute lists by reference.  A span's node is always the registry's
   [label], so it has no slot. *)
type ring = {
  r_trace : int array;
  r_id : int array;
  r_parent : int array;
  r_start : Float.Array.t;
  r_end : Float.Array.t;
  r_name : string array;
  r_attrs : (string * string) list array;
  r_extras : (string * string) list array;
}

let ring_make n =
  {
    r_trace = Array.make n 0;
    r_id = Array.make n 0;
    r_parent = Array.make n 0;
    r_start = Float.Array.make n 0.;
    r_end = Float.Array.make n 0.;
    r_name = Array.make n "";
    r_attrs = Array.make n [];
    r_extras = Array.make n [];
  }

let empty_ring = ring_make 0

(* [r]'s first [len] slots in a ring of [n] slots. *)
let ring_grow r len n =
  let r' = ring_make n in
  Array.blit r.r_trace 0 r'.r_trace 0 len;
  Array.blit r.r_id 0 r'.r_id 0 len;
  Array.blit r.r_parent 0 r'.r_parent 0 len;
  Float.Array.blit r.r_start 0 r'.r_start 0 len;
  Float.Array.blit r.r_end 0 r'.r_end 0 len;
  Array.blit r.r_name 0 r'.r_name 0 len;
  Array.blit r.r_attrs 0 r'.r_attrs 0 len;
  Array.blit r.r_extras 0 r'.r_extras 0 len;
  r'

type t = {
  on : bool;
  label : string;
  mutable clock : unit -> float;
  tbl : (string, entry) Hashtbl.t;
  mutable rev_order : entry list;
  families : (string, family) Hashtbl.t;
  (* lazily-interned cells for the registry's own telemetry, cached so
     the hot paths that update them stay a couple of field writes *)
  mutable ovf_cell : counter_cell option; (* obs.label_overflow *)
  mutable selftr_cells : (counter_cell * gauge_cell) option;
      (* obs.spans_dropped, obs.trace_buffer_depth *)
  mutable spans : span_node list; (* open [with_span] paths, innermost first *)
  span_roots : (string, span_node) Hashtbl.t; (* top-level paths by name *)
  (* trace ring buffer: [tr_head] indexes the oldest stored span,
     [tr_len] counts stored spans, writes go to (head + len) mod cap.
     [tr_ring] starts small and doubles up to [tr_cap] slots; it only
     wraps once full, so [tr_head] is 0 while it grows. *)
  mutable tr_cap : int;
  mutable tr_ring : ring;
  mutable tr_head : int;
  mutable tr_len : int;
  mutable tr_dropped : int;
  mutable tr_stack : tr_span list; (* open trace spans, innermost first *)
}

let default_trace_capacity = 4096

let create ?(label = "main") () =
  {
    on = true;
    label;
    clock = default_clock;
    tbl = Hashtbl.create 64;
    rev_order = [];
    families = Hashtbl.create 8;
    ovf_cell = None;
    selftr_cells = None;
    spans = [];
    span_roots = Hashtbl.create 8;
    tr_cap = default_trace_capacity;
    tr_ring = empty_ring;
    tr_head = 0;
    tr_len = 0;
    tr_dropped = 0;
    tr_stack = [];
  }

let null =
  {
    on = false;
    label = "null";
    clock = default_clock;
    tbl = Hashtbl.create 1;
    rev_order = [];
    families = Hashtbl.create 1;
    ovf_cell = None;
    selftr_cells = None;
    spans = [];
    span_roots = Hashtbl.create 1;
    tr_cap = 0;
    tr_ring = empty_ring;
    tr_head = 0;
    tr_len = 0;
    tr_dropped = 0;
    tr_stack = [];
  }

let enabled t = t.on
let set_registry_clock t f = if t.on then t.clock <- f

let now t = t.clock ()

let default_latency_buckets = [ 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 ]
let ratio_buckets = [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.5; 0.75; 1.0 ]

let kind_name = function
  | Dcounter _ -> "counter"
  | Dgauge _ -> "gauge"
  | Dhist _ -> "histogram"

let same_kind a b =
  match (a, b) with
  | Dcounter _, Dcounter _ | Dgauge _, Dgauge _ | Dhist _, Dhist _ -> true
  | _ -> false

(* Get the entry for [name], creating it with [fresh ()] on first use.
   Re-attaching to an existing name of the same kind returns the
   existing cell, so two components sharing a registry aggregate into
   one metric; a kind clash is a programming error. *)
let intern t name unit_ fresh =
  match Hashtbl.find_opt t.tbl name with
  | Some e ->
    if not (same_kind e.data (fresh ())) then
      invalid_arg
        (Printf.sprintf "Obs: metric %S already registered as a %s" name
           (kind_name e.data));
    e
  | None ->
    let e = { ename = name; eunit = unit_; data = fresh () } in
    Hashtbl.add t.tbl name e;
    t.rev_order <- e :: t.rev_order;
    e

let reset (t : t) =
  List.iter
    (fun e ->
       match e.data with
       | Dcounter c -> c.n <- 0
       | Dgauge g ->
         g.g <- 0.;
         g.gset <- false;
         g.gdelta <- false
       | Dhist h ->
         Array.fill h.hcounts 0 (Array.length h.hcounts) 0;
         h.hcount <- 0;
         h.hsum <- 0.;
         h.hmin <- infinity;
         h.hmax <- neg_infinity)
    t.rev_order;
  t.spans <- [];
  t.tr_ring <- empty_ring;
  t.tr_head <- 0;
  t.tr_len <- 0;
  t.tr_dropped <- 0;
  t.tr_stack <- []

(* Distinct non-overflow series of [fam] present in [t], by scanning for
   the composed-name prefix.  Used to refresh [fam_series] after a merge
   so the cardinality cap keeps meaning "series this registry holds". *)
let count_series (t : t) (fam : family) =
  let prefix = fam.fam_name ^ "{" in
  let plen = String.length prefix in
  Hashtbl.fold
    (fun k _ acc ->
       if
         String.length k > plen
         && String.sub k 0 plen = prefix
         && k <> fam.fam_other
       then acc + 1
       else acc)
    t.tbl 0

(* Scrape-time aggregation across per-domain (or per-shard) registries.
   Counters add, delta gauges ([Gauge.add]) sum, set gauges take the
   source value when it was ever set, histograms add bucket-wise when
   the bounds agree.  Entries missing from [into] are created on first
   merge, so merging N registries into a fresh one yields the union in
   [src] registration order.  Labeled series merge like any other entry
   (shard-disjoint label sets union; matching series aggregate,
   including the reserved ["other"] overflow series); family metadata is
   copied over and [into]'s per-family series counts are refreshed.
   Cardinality caps apply at record time per shard, never at merge, so a
   union of capped shards may legitimately exceed one shard's cap. *)
let merge_into ~(into : t) (src : t) =
  if into.on then begin
    List.iter
      (fun (se : entry) ->
         match se.data with
         | Dcounter sc ->
           let e = intern into se.ename se.eunit (fun () -> Dcounter { n = 0 }) in
           (match e.data with
            | Dcounter c -> c.n <- c.n + sc.n
            | _ -> assert false)
         | Dgauge sg ->
           let e =
             intern into se.ename se.eunit (fun () ->
                 Dgauge { g = 0.; gset = false; gdelta = false })
           in
           (match e.data with
            | Dgauge g ->
              if sg.gset then
                if sg.gdelta then begin
                  g.g <- g.g +. sg.g;
                  g.gset <- true;
                  g.gdelta <- true
                end
                else begin
                  g.g <- sg.g;
                  g.gset <- true;
                  g.gdelta <- false
                end
            | _ -> assert false)
         | Dhist sh ->
           let e =
             intern into se.ename se.eunit (fun () ->
                 Dhist
                   {
                     bounds = Array.copy sh.bounds;
                     hcounts = Array.make (Array.length sh.hcounts) 0;
                     hcount = 0;
                     hsum = 0.;
                     hmin = infinity;
                     hmax = neg_infinity;
                   })
           in
           (match e.data with
            | Dhist h when h.bounds = sh.bounds ->
              Array.iteri (fun i n -> h.hcounts.(i) <- h.hcounts.(i) + n)
                sh.hcounts;
              h.hcount <- h.hcount + sh.hcount;
              h.hsum <- h.hsum +. sh.hsum;
              if sh.hcount > 0 then begin
                if sh.hmin < h.hmin then h.hmin <- sh.hmin;
                if sh.hmax > h.hmax then h.hmax <- sh.hmax
              end
            | Dhist _ ->
              invalid_arg
                (Printf.sprintf
                   "Obs.merge_into: histogram %S has different buckets"
                   se.ename)
            | _ -> assert false))
      (List.rev src.rev_order);
    Hashtbl.iter
      (fun name (sf : family) ->
         match Hashtbl.find_opt into.families name with
         | Some f ->
           if f.fam_kind <> sf.fam_kind then
             invalid_arg
               (Printf.sprintf
                  "Obs.merge_into: family %S is a %s family here but a %s \
                   family in the source"
                  name f.fam_kind sf.fam_kind);
           f.fam_series <- count_series into f
         | None ->
           let f = { sf with fam_series = 0 } in
           f.fam_series <- count_series into f;
           Hashtbl.replace into.families name f)
      src.families
  end

let merged ?label srcs =
  let into = create ?label () in
  List.iter (fun src -> merge_into ~into src) srcs;
  into

(* Span and trace ids come from one process-wide counter so spans from
   different registries (one per simulated node, possibly on different
   domains) can be merged without collisions.  0 is reserved for "no
   parent"; the counter is atomic so ids stay unique across domains. *)
let id_counter = Atomic.make 0
let next_id () = Atomic.fetch_and_add id_counter 1 + 1

type trace_ctx = { trace_id : int; span_id : int }

(* The ring's own health as ordinary metrics, registered lazily on the
   first buffered span so registries that never trace keep their metric
   set unchanged.  [obs.spans_dropped] mirrors [Trace.dropped] and
   [obs.trace_buffer_depth] mirrors the live occupancy, so span loss is
   visible in any scrape instead of only via the Trace API. *)
let selftr_cells t =
  match t.selftr_cells with
  | Some cells -> cells
  | None ->
    let ce = intern t "obs.spans_dropped" None (fun () -> Dcounter { n = 0 }) in
    let ge =
      intern t "obs.trace_buffer_depth" (Some "spans") (fun () ->
          Dgauge { g = 0.; gset = false; gdelta = false })
    in
    let cells =
      ( (match ce.data with Dcounter c -> c | _ -> assert false),
        (match ge.data with Dgauge g -> g | _ -> assert false) )
    in
    t.selftr_cells <- Some cells;
    cells

(* The first buffered span allocates this many slots; the ring doubles
   from there up to [tr_cap], so a registry that records a few spans
   never pays for the whole ring. *)
let ring_initial_slots = 32

(* Buffer one finished span.  While the ring is not full, [tr_head] is 0
   and the next free slot is [tr_len]; once full, the oldest span's slot
   is overwritten. *)
let tr_push t ~trace ~id ~parent ~name ~start ~stop ~attrs ~extras =
  if t.tr_cap > 0 then begin
    let i =
      if t.tr_len = t.tr_cap then begin
        let i = t.tr_head in
        t.tr_head <- (i + 1) mod t.tr_cap;
        t.tr_dropped <- t.tr_dropped + 1;
        let dc, _ = selftr_cells t in
        dc.n <- dc.n + 1;
        i
      end
      else begin
        let i = t.tr_len in
        if i = Array.length t.tr_ring.r_id then
          t.tr_ring <-
            ring_grow t.tr_ring i (min t.tr_cap (max ring_initial_slots (2 * i)));
        t.tr_len <- i + 1;
        let _, dg = selftr_cells t in
        dg.g <- float_of_int t.tr_len;
        dg.gset <- true;
        i
      end
    in
    let r = t.tr_ring in
    r.r_trace.(i) <- trace;
    r.r_id.(i) <- id;
    r.r_parent.(i) <- parent;
    Float.Array.set r.r_start i start;
    Float.Array.set r.r_end i stop;
    r.r_name.(i) <- name;
    r.r_attrs.(i) <- attrs;
    r.r_extras.(i) <- extras
  end

let open_trace_span ?ctx t name ~attrs t0 =
  let parent, trace =
    match ctx with
    | Some c -> (c.span_id, c.trace_id)
    | None -> (
      match t.tr_stack with
      | sp :: _ -> (sp.sp_id, sp.sp_trace)
      | [] -> (0, next_id ()))
  in
  let sp =
    {
      sp_trace = trace;
      sp_id = next_id ();
      sp_parent = parent;
      sp_name = name;
      sp_start = t0;
      sp_attrs = attrs;
      sp_extras = [];
    }
  in
  t.tr_stack <- sp :: t.tr_stack;
  sp

let close_trace_span t sp t1 =
  (match t.tr_stack with [] -> () | _ :: rest -> t.tr_stack <- rest);
  tr_push t ~trace:sp.sp_trace ~id:sp.sp_id ~parent:sp.sp_parent ~name:sp.sp_name
    ~start:sp.sp_start ~stop:t1 ~attrs:sp.sp_attrs ~extras:sp.sp_extras

module Counter = struct
  type h = { on : bool; cell : counter_cell }

  let inert = { on = false; cell = { n = 0 } }

  let make (t : t) ?unit_ name =
    if not t.on then inert
    else
      let e = intern t name unit_ (fun () -> Dcounter { n = 0 }) in
      (match e.data with
       | Dcounter c -> { on = true; cell = c }
       | _ -> assert false)

  let incr h = if h.on then h.cell.n <- h.cell.n + 1
  let add h k = if h.on then h.cell.n <- h.cell.n + k

  let value (t : t) name =
    match Hashtbl.find_opt t.tbl name with
    | Some { data = Dcounter c; _ } -> c.n
    | _ -> 0
end

module Gauge = struct
  type h = { on : bool; cell : gauge_cell }

  let inert = { on = false; cell = { g = 0.; gset = false; gdelta = false } }

  let make (t : t) ?unit_ name =
    if not t.on then inert
    else
      let e =
        intern t name unit_ (fun () ->
            Dgauge { g = 0.; gset = false; gdelta = false })
      in
      (match e.data with
       | Dgauge g -> { on = true; cell = g }
       | _ -> assert false)

  let set h v =
    if h.on then begin
      h.cell.g <- v;
      h.cell.gset <- true;
      h.cell.gdelta <- false
    end

  (* Up/down delta.  Unlike read-modify-write around [set], deltas
     survive scrape-time merging: each shard accumulates its own +/-
     and [merge_into] sums them, so a depth gauge split across domains
     reports the true total instead of one shard's last write. *)
  let add h d =
    if h.on then begin
      h.cell.g <- h.cell.g +. d;
      h.cell.gset <- true;
      h.cell.gdelta <- true
    end

  let value (t : t) name =
    match Hashtbl.find_opt t.tbl name with
    | Some { data = Dgauge g; _ } when g.gset -> Some g.g
    | _ -> None
end

module Histogram = struct
  type h = { on : bool; cell : hist_cell }

  type snapshot = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : (float * int) list;
  }

  let fresh_cell buckets =
    let bounds = Array.of_list buckets in
    Array.iteri
      (fun i b ->
         if i > 0 && b <= bounds.(i - 1) then
           invalid_arg "Obs.Histogram.make: buckets must be strictly ascending")
      bounds;
    {
      bounds;
      hcounts = Array.make (Array.length bounds + 1) 0;
      hcount = 0;
      hsum = 0.;
      hmin = infinity;
      hmax = neg_infinity;
    }

  let inert = { on = false; cell = fresh_cell [] }

  let make (t : t) ?unit_ ?(buckets = default_latency_buckets) name =
    if not t.on then inert
    else
      let e = intern t name unit_ (fun () -> Dhist (fresh_cell buckets)) in
      (match e.data with
       | Dhist c -> { on = true; cell = c }
       | _ -> assert false)

  let observe h v =
    if h.on then begin
      let c = h.cell in
      let n = Array.length c.bounds in
      let i = ref 0 in
      while !i < n && v > c.bounds.(!i) do
        incr i
      done;
      c.hcounts.(!i) <- c.hcounts.(!i) + 1;
      c.hcount <- c.hcount + 1;
      c.hsum <- c.hsum +. v;
      if v < c.hmin then c.hmin <- v;
      if v > c.hmax then c.hmax <- v
    end

  let snapshot_cell c =
    let buckets =
      Array.to_list
        (Array.mapi
           (fun i n ->
              let le =
                if i < Array.length c.bounds then c.bounds.(i) else infinity
              in
              (le, n))
           c.hcounts)
    in
    {
      count = c.hcount;
      sum = c.hsum;
      min = (if c.hcount = 0 then 0. else c.hmin);
      max = (if c.hcount = 0 then 0. else c.hmax);
      buckets;
    }

  let snapshot (t : t) name =
    match Hashtbl.find_opt t.tbl name with
    | Some { data = Dhist c; _ } -> Some (snapshot_cell c)
    | _ -> None

  let count (t : t) name =
    match snapshot t name with Some s -> s.count | None -> 0

  let sum (t : t) name = match snapshot t name with Some s -> s.sum | None -> 0.

  (* Conservative bucket-based estimate: the upper bound of the bucket
     holding the rank-[ceil (q * count)] observation, clamped to the
     observed extrema so q=0 and q=1 stay meaningful.  Samples landing in
     the implicit +inf bucket report [s.max]. *)
  let quantile (s : snapshot) (q : float) : float =
    if s.count = 0 then 0.
    else begin
      (* every q maps to a defined rank: NaN and q <= 0 to the lowest
         sample, q >= 1 to the highest; a single-sample snapshot has
         min = max, so the clamp below returns that sample exactly *)
      let q = if not (q >= 0.) then 0. else if q > 1. then 1. else q in
      let rank =
        let r = int_of_float (ceil (q *. float_of_int s.count)) in
        if r < 1 then 1 else r
      in
      let rec walk cum = function
        | [] -> s.max
        | (le, n) :: rest ->
          let cum = cum + n in
          if cum >= rank then
            if le = infinity then s.max
            else if le > s.max then s.max
            else if le < s.min then s.min
            else le
          else walk cum rest
      in
      walk 0 s.buckets
    end
end

(* --- labeled families --------------------------------------------------- *)

let label_overflow_name = "obs.label_overflow"

let overflow_incr t =
  let c =
    match t.ovf_cell with
    | Some c -> c
    | None ->
      let e =
        intern t label_overflow_name None (fun () -> Dcounter { n = 0 })
      in
      let c = match e.data with Dcounter c -> c | _ -> assert false in
      t.ovf_cell <- Some c;
      c
  in
  c.n <- c.n + 1

module Labeled = struct
  let default_cardinality = 64
  let overflow_value = "other"

  (* One representation for both kinds; the mli exposes them as distinct
     abstract types so a counter family cannot hand out histogram
     handles.  [lf = None] is the inert family from {!null}. *)
  type fh = { lt : t; lf : family option }
  type counter = fh
  type histogram = fh

  let make_family (t : t) ?unit_ ?(cardinality = default_cardinality) ~kind
      ~buckets ~keys name =
    if keys = [] then
      invalid_arg "Obs.Labeled: a family needs at least one label key";
    if cardinality < 1 then
      invalid_arg "Obs.Labeled: cardinality must be >= 1";
    List.iter
      (fun k ->
         if k = "" then invalid_arg "Obs.Labeled: empty label key";
         String.iter
           (fun ch ->
              match ch with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
              | _ ->
                invalid_arg
                  (Printf.sprintf
                     "Obs.Labeled: label key %S: use [A-Za-z0-9_]" k))
           k)
      keys;
    (* histogram bounds are validated eagerly so a bad bucket list fails
       at registration, not on the first spilled observation *)
    if kind = "histogram" then ignore (Histogram.fresh_cell buckets);
    if not t.on then { lt = t; lf = None }
    else
      match Hashtbl.find_opt t.families name with
      | Some f ->
        if f.fam_kind <> kind then
          invalid_arg
            (Printf.sprintf "Obs: family %S already registered as a %s family"
               name f.fam_kind);
        if f.fam_keys <> keys then
          invalid_arg
            (Printf.sprintf
               "Obs: family %S already registered with label keys [%s]" name
               (String.concat "; " f.fam_keys));
        { lt = t; lf = Some f }
      | None ->
        let fam =
          {
            fam_name = name;
            fam_keys = keys;
            fam_kind = kind;
            fam_unit = unit_;
            fam_buckets = buckets;
            fam_cap = cardinality;
            fam_other =
              compose_series name keys
                (List.map (fun _ -> overflow_value) keys);
            fam_series = 0;
          }
        in
        Hashtbl.replace t.families name fam;
        { lt = t; lf = Some fam }

  let counter t ?unit_ ?cardinality ~keys name : counter =
    make_family t ?unit_ ?cardinality ~kind:"counter" ~buckets:[] ~keys name

  let histogram t ?unit_ ?(buckets = default_latency_buckets) ?cardinality
      ~keys name : histogram =
    make_family t ?unit_ ?cardinality ~kind:"histogram" ~buckets ~keys name

  let fresh_of fam () =
    match fam.fam_kind with
    | "counter" -> Dcounter { n = 0 }
    | _ -> Dhist (Histogram.fresh_cell fam.fam_buckets)

  (* Series lookup: under the cap a new tuple interns a fresh entry;
     at the cap the tuple routes to the reserved all-[other] series and
     bumps [obs.label_overflow] once per spilled lookup.  Asking for
     the [other] tuple explicitly is always valid and never counts as a
     spill (nor against the cap) — which is why [other] is a reserved
     label value. *)
  let resolve (h : fh) values : entry option =
    match h.lf with
    | None -> None
    | Some fam ->
      let t = h.lt in
      if List.length values <> List.length fam.fam_keys then
        invalid_arg
          (Printf.sprintf
             "Obs.Labeled: family %S expects %d label values, got %d"
             fam.fam_name
             (List.length fam.fam_keys)
             (List.length values));
      let name = compose_series fam.fam_name fam.fam_keys values in
      if name = fam.fam_other then
        Some (intern t name fam.fam_unit (fresh_of fam))
      else
        match Hashtbl.find_opt t.tbl name with
        | Some e ->
          if kind_name e.data <> fam.fam_kind then
            invalid_arg
              (Printf.sprintf "Obs: metric %S already registered as a %s" name
                 (kind_name e.data));
          Some e
        | None ->
          if fam.fam_series < fam.fam_cap then begin
            fam.fam_series <- fam.fam_series + 1;
            Some (intern t name fam.fam_unit (fresh_of fam))
          end
          else begin
            overflow_incr t;
            Some (intern t fam.fam_other fam.fam_unit (fresh_of fam))
          end

  let counter_series (h : counter) values : Counter.h =
    match resolve h values with
    | None -> Counter.inert
    | Some e -> (
      match e.data with
      | Dcounter c -> { Counter.on = true; cell = c }
      | _ -> assert false)

  let histogram_series (h : histogram) values : Histogram.h =
    match resolve h values with
    | None -> Histogram.inert
    | Some e -> (
      match e.data with
      | Dhist c -> { Histogram.on = true; cell = c }
      | _ -> assert false)

  (* One-shot conveniences for cold paths; hot paths should memoize the
     series handle instead (one hashtable probe + string build each). *)
  let incr h values = Counter.incr (counter_series h values)
  let add h values k = Counter.add (counter_series h values) k
  let observe h values v = Histogram.observe (histogram_series h values) v

  let series_count (t : t) name =
    match Hashtbl.find_opt t.families name with
    | Some f -> f.fam_series
    | None -> 0

  let overflowed (t : t) = Counter.value t label_overflow_name
end

(* The path [name] opens under the innermost open one: found by one
   probe of its parent's children once entered, so only the first call
   builds its path and interns its histogram. *)
let span_node t name =
  let children = match t.spans with [] -> t.span_roots | p :: _ -> p.sn_children in
  match Hashtbl.find children name with
  | n -> n
  | exception Not_found ->
    let path = match t.spans with [] -> name | p :: _ -> p.sn_path ^ "/" ^ name in
    let h = Histogram.make t ~unit_:"ns" ("span:" ^ path) in
    let n =
      { sn_path = path; sn_observe = Histogram.observe h; sn_children = Hashtbl.create 4 }
    in
    Hashtbl.add children name n;
    n

let close_span t n sp ~parents t0 =
  let t1 = now t in
  n.sn_observe (t1 -. t0);
  close_trace_span t sp t1;
  t.spans <- parents

let with_span (t : t) name f =
  if not t.on then f ()
  else begin
    let n = span_node t name in
    let parents = t.spans in
    t.spans <- n :: parents;
    let t0 = now t in
    let sp = open_trace_span t name ~attrs:[] t0 in
    match f () with
    | v ->
      close_span t n sp ~parents t0;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_span t n sp ~parents t0;
      Printexc.raise_with_backtrace e bt
  end

(* --- rendering --------------------------------------------------------- *)

let names (t : t) = List.rev_map (fun e -> e.ename) t.rev_order

let entries (t : t) = List.rev t.rev_order

let fmt_float f =
  if Float.is_nan f || f = infinity || f = neg_infinity then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.3f" f

let fmt_bound le = if le = infinity then "+inf" else Printf.sprintf "%g" le

let render_table t =
  let buf = Buffer.create 1024 in
  let es = entries t in
  let width =
    List.fold_left (fun w e -> max w (String.length e.ename)) 6 es
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %-9s  %s\n" width "metric" "kind" "value");
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %-9s  %s\n" width "------" "----" "-----");
  List.iter
    (fun e ->
       let unit_suffix =
         match e.eunit with None -> "" | Some u -> " " ^ u
       in
       match e.data with
       | Dcounter c ->
         Buffer.add_string buf
           (Printf.sprintf "%-*s  %-9s  %d%s\n" width e.ename "counter" c.n
              unit_suffix)
       | Dgauge g ->
         let v = if g.gset then fmt_float g.g else "-" in
         Buffer.add_string buf
           (Printf.sprintf "%-*s  %-9s  %s%s\n" width e.ename "gauge" v
              unit_suffix)
       | Dhist c ->
         let s = Histogram.snapshot_cell c in
         let mean = if s.count = 0 then 0. else s.sum /. float_of_int s.count in
         Buffer.add_string buf
           (Printf.sprintf
              "%-*s  %-9s  count=%d mean=%s min=%s max=%s%s\n" width e.ename
              "histogram" s.count (fmt_float mean) (fmt_float s.min)
              (fmt_float s.max) unit_suffix);
         if s.count > 0 then begin
           Buffer.add_string buf (Printf.sprintf "%-*s    " width "");
           Buffer.add_string buf
             (String.concat "  "
                (List.filter_map
                   (fun (le, n) ->
                      if n = 0 then None
                      else Some (Printf.sprintf "le %s: %d" (fmt_bound le) n))
                   s.buckets));
           Buffer.add_char buf '\n'
         end)
    es;
  Buffer.contents buf

(* JSON helpers: numbers must be finite, strings escaped. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_nan f || f = infinity || f = neg_infinity then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_json_lines t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
       let unit_ = match e.eunit with None -> "" | Some u -> u in
       let head =
         Printf.sprintf "{\"metric\":\"%s\",\"kind\":\"%s\",\"unit\":\"%s\""
           (json_escape e.ename) (kind_name e.data) (json_escape unit_)
       in
       Buffer.add_string buf head;
       (match e.data with
        | Dcounter c -> Buffer.add_string buf (Printf.sprintf ",\"value\":%d" c.n)
        | Dgauge g ->
          Buffer.add_string buf
            (Printf.sprintf ",\"value\":%s" (json_float (if g.gset then g.g else 0.)))
        | Dhist c ->
          let s = Histogram.snapshot_cell c in
          Buffer.add_string buf
            (Printf.sprintf ",\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s"
               s.count (json_float s.sum) (json_float s.min) (json_float s.max));
          Buffer.add_string buf ",\"buckets\":[";
          Buffer.add_string buf
            (String.concat ","
               (List.map
                  (fun (le, n) ->
                     let le_json =
                       if le = infinity then "\"+inf\"" else json_float le
                     in
                     Printf.sprintf "{\"le\":%s,\"n\":%d}" le_json n)
                  s.buckets));
          Buffer.add_char buf ']');
       Buffer.add_string buf "}\n")
    (entries t);
  Buffer.contents buf

(* --- prometheus text exposition ---------------------------------------- *)

(* Prometheus metric names allow [a-zA-Z0-9_:]; dots (and anything else)
   become underscores.  Label pairs inside a composed series name are
   already in prometheus syntax and pass through untouched. *)
let prom_name name =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
       | _ -> '_')
    name

let split_series name =
  match String.index_opt name '{' with
  | Some i when String.length name > 0 && name.[String.length name - 1] = '}'
    ->
    (String.sub name 0 i, Some (String.sub name (i + 1) (String.length name - i - 2)))
  | _ -> (name, None)

let prom_bound le = if le = infinity then "+Inf" else Printf.sprintf "%g" le

let to_prometheus t =
  let buf = Buffer.create 2048 in
  (* group series under their family base name, preserving first-seen
     registration order, so each base gets exactly one # TYPE line *)
  let order = ref [] in
  let by_base : (string, (entry * string option) list) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun e ->
       let base, labels = split_series e.ename in
       match Hashtbl.find_opt by_base base with
       | Some l -> Hashtbl.replace by_base base ((e, labels) :: l)
       | None ->
         Hashtbl.add by_base base [ (e, labels) ];
         order := base :: !order)
    (entries t);
  List.iter
    (fun base ->
       let members = List.rev (Hashtbl.find by_base base) in
       let pbase = prom_name base in
       (match members with
        | (e, _) :: _ ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s %s\n" pbase (kind_name e.data))
        | [] -> ());
       List.iter
         (fun (e, labels) ->
            let series suffix extra v =
              let lbl =
                match (labels, extra) with
                | None, [] -> ""
                | None, l -> "{" ^ String.concat "," l ^ "}"
                | Some l, [] -> "{" ^ l ^ "}"
                | Some l, extra -> "{" ^ l ^ "," ^ String.concat "," extra ^ "}"
              in
              Buffer.add_string buf
                (Printf.sprintf "%s%s%s %s\n" pbase suffix lbl v)
            in
            match e.data with
            | Dcounter c -> series "" [] (string_of_int c.n)
            | Dgauge g -> series "" [] (json_float (if g.gset then g.g else 0.))
            | Dhist c ->
              let s = Histogram.snapshot_cell c in
              let cum = ref 0 in
              List.iter
                (fun (le, n) ->
                   cum := !cum + n;
                   series "_bucket"
                     [ Printf.sprintf "le=\"%s\"" (prom_bound le) ]
                     (string_of_int !cum))
                s.buckets;
              series "_sum" [] (json_float s.sum);
              series "_count" [] (string_of_int s.count))
         members)
    (List.rev !order);
  Buffer.contents buf

type sink = Null | Text of (string -> unit) | Json of (string -> unit)

let emit t = function
  | Null -> ()
  | Text k -> k (render_table t)
  | Json k -> k (to_json_lines t)

(* --- distributed tracing ----------------------------------------------- *)

module Trace = struct
  type ctx = trace_ctx = { trace_id : int; span_id : int }

  type span = {
    trace_id : int;
    span_id : int;
    parent_id : int option;
    name : string;
    node : string;
    start_ns : float;
    end_ns : float;
    attrs : (string * string) list;
  }

  let note_depth t =
    match t.selftr_cells with
    | Some (_, dg) -> dg.g <- float_of_int t.tr_len
    | None -> ()

  let set_capacity t n =
    if t.on then begin
      if n < 0 then invalid_arg "Obs.Trace.set_capacity: negative capacity";
      t.tr_cap <- n;
      t.tr_ring <- empty_ring;
      t.tr_head <- 0;
      t.tr_len <- 0;
      t.tr_dropped <- 0;
      note_depth t
    end

  let capacity t = t.tr_cap
  let dropped t = t.tr_dropped

  let clear t =
    t.tr_ring <- empty_ring;
    t.tr_head <- 0;
    t.tr_len <- 0;
    t.tr_dropped <- 0;
    t.tr_stack <- [];
    note_depth t

  let current t =
    match t.tr_stack with
    | sp :: _ -> Some { trace_id = sp.sp_trace; span_id = sp.sp_id }
    | [] -> None

  let add_attr t k v =
    match t.tr_stack with
    | sp :: _ -> sp.sp_extras <- (k, v) :: sp.sp_extras
    | [] -> ()

  (* Slot [i] as a span: the caller's attributes, then [add_attr]'s in
     the order they were added. *)
  let export t i =
    let r = t.tr_ring in
    let parent = r.r_parent.(i) in
    {
      trace_id = r.r_trace.(i);
      span_id = r.r_id.(i);
      parent_id = (if parent = 0 then None else Some parent);
      name = r.r_name.(i);
      node = t.label;
      start_ns = Float.Array.get r.r_start i;
      end_ns = Float.Array.get r.r_end i;
      attrs = r.r_attrs.(i) @ List.rev r.r_extras.(i);
    }

  let spans t = List.init t.tr_len (fun i -> export t ((t.tr_head + i) mod t.tr_cap))

  let with_span ?ctx ?start_ns ?(attrs = []) t name f =
    if not t.on then f ()
    else begin
      let t0 = match start_ns with Some t0 -> t0 | None -> now t in
      let sp = open_trace_span ?ctx t name ~attrs t0 in
      match f () with
      | v ->
        close_trace_span t sp (now t);
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close_trace_span t sp (now t);
        Printexc.raise_with_backtrace e bt
    end

  let record ?ctx ?(attrs = []) t name ~start_ns ~end_ns =
    if t.on then begin
      let parent, trace =
        match ctx with
        | Some (c : ctx) -> (c.span_id, c.trace_id)
        | None -> (
          match t.tr_stack with
          | sp :: _ -> (sp.sp_id, sp.sp_trace)
          | [] -> (0, next_id ()))
      in
      tr_push t ~trace ~id:(next_id ()) ~parent ~name ~start:start_ns ~stop:end_ns
        ~attrs ~extras:[]
    end

  (* --- assembly -------------------------------------------------------- *)

  type tree = { span : span; children : tree list }

  type trace = {
    id : int;
    roots : tree list;
    orphans : span list;
    duplicates : int;
    span_count : int;
  }

  let by_start a b = compare a.start_ns b.start_ns

  (* Merge span dumps from any number of registries into per-trace trees.
     Assembly is deliberately forgiving: duplicate span ids (frame
     duplication) are counted and dropped, spans whose parent is missing
     (ring overflow, lost frame) become roots and are reported as
     orphans, and parent cycles are broken rather than looping. *)
  let assemble (all : span list) : trace list =
    let seen = Hashtbl.create 64 in
    let dup_counts = Hashtbl.create 8 in
    let uniq =
      List.filter
        (fun s ->
           if Hashtbl.mem seen s.span_id then begin
             Hashtbl.replace dup_counts s.trace_id
               (1
                +
                match Hashtbl.find_opt dup_counts s.trace_id with
                | Some n -> n
                | None -> 0);
             false
           end
           else begin
             Hashtbl.add seen s.span_id ();
             true
           end)
        all
    in
    let groups = Hashtbl.create 16 in
    List.iter
      (fun s ->
         let l =
           match Hashtbl.find_opt groups s.trace_id with
           | Some l -> l
           | None -> []
         in
         Hashtbl.replace groups s.trace_id (s :: l))
      uniq;
    let traces =
      Hashtbl.fold
        (fun id rev_members acc ->
           let members = List.rev rev_members in
           let by_id = Hashtbl.create 16 in
           List.iter (fun s -> Hashtbl.replace by_id s.span_id s) members;
           let child_tbl = Hashtbl.create 16 in
           let roots = ref [] in
           let orphans = ref [] in
           List.iter
             (fun s ->
                match s.parent_id with
                | None -> roots := s :: !roots
                | Some p when Hashtbl.mem by_id p ->
                  let l =
                    match Hashtbl.find_opt child_tbl p with
                    | Some l -> l
                    | None -> []
                  in
                  Hashtbl.replace child_tbl p (s :: l)
                | Some _ ->
                  orphans := s :: !orphans;
                  roots := s :: !roots)
             members;
           let visited = Hashtbl.create 16 in
           let rec build s =
             Hashtbl.replace visited s.span_id ();
             let kids =
               match Hashtbl.find_opt child_tbl s.span_id with
               | Some l -> l
               | None -> []
             in
             let kids =
               List.filter (fun k -> not (Hashtbl.mem visited k.span_id)) kids
             in
             List.iter (fun k -> Hashtbl.replace visited k.span_id ()) kids;
             let kids = List.sort by_start kids in
             { span = s; children = List.map build kids }
           in
           let root_spans = List.sort by_start (List.rev !roots) in
           let trees = List.map build root_spans in
           (* anything unreachable from a root sits on a parent cycle:
              promote it to an orphan root so it still shows up *)
           let extra =
             List.filter (fun s -> not (Hashtbl.mem visited s.span_id)) members
           in
           let extra_trees =
             List.filter_map
               (fun s ->
                  if Hashtbl.mem visited s.span_id then None
                  else begin
                    orphans := s :: !orphans;
                    Some (build s)
                  end)
               (List.sort by_start extra)
           in
           {
             id;
             roots = trees @ extra_trees;
             orphans = List.rev !orphans;
             duplicates =
               (match Hashtbl.find_opt dup_counts id with
                | Some n -> n
                | None -> 0);
             span_count = List.length members;
           }
           :: acc)
        groups []
    in
    let start_of tr =
      List.fold_left (fun m node -> min m node.span.start_ns) infinity tr.roots
    in
    List.sort (fun a b -> compare (start_of a) (start_of b)) traces

  let rec tree_spans node = node.span :: List.concat_map tree_spans node.children
  let trace_spans tr = List.concat_map tree_spans tr.roots

  (* --- exporters ------------------------------------------------------- *)

  (* Chrome trace-event JSON (the "JSON Array Format" with metadata),
     loadable in Perfetto / chrome://tracing.  Each node label becomes a
     process (pid) named via a "process_name" metadata event; each trace
     becomes one tid row so concurrent traces don't overlap. *)
  let to_chrome_json (traces : trace list) : string =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[";
    let first = ref true in
    let add_obj s =
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf s
    in
    let pids = Hashtbl.create 8 in
    let next_pid = ref 0 in
    let pid_of node =
      match Hashtbl.find_opt pids node with
      | Some p -> p
      | None ->
        incr next_pid;
        Hashtbl.add pids node !next_pid;
        add_obj
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
             !next_pid (json_escape node));
        !next_pid
    in
    let emit_span tid (s : span) =
      let pid = pid_of s.node in
      let dur_us = Float.max 0. (s.end_ns -. s.start_ns) /. 1e3 in
      let args =
        List.map
          (fun (k, v) ->
             Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
          s.attrs
        @ [
            Printf.sprintf "\"trace_id\":%d" s.trace_id;
            Printf.sprintf "\"span_id\":%d" s.span_id;
          ]
        @ (match s.parent_id with
           | None -> []
           | Some p -> [ Printf.sprintf "\"parent_id\":%d" p ])
      in
      add_obj
        (Printf.sprintf
           "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"cat\":\"morph\",\"ts\":%s,\"dur\":%s,\"args\":{%s}}"
           pid tid (json_escape s.name)
           (json_float (s.start_ns /. 1e3))
           (json_float dur_us)
           (String.concat "," args))
    in
    let rec walk tid node =
      emit_span tid node.span;
      List.iter (walk tid) node.children
    in
    List.iteri (fun i tr -> List.iter (walk (i + 1)) tr.roots) traces;
    Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
    Buffer.contents buf

  let to_waterfall (traces : trace list) : string =
    let buf = Buffer.create 4096 in
    List.iter
      (fun tr ->
         let spans = trace_spans tr in
         let t0 =
           List.fold_left (fun m s -> min m s.start_ns) infinity spans
         in
         let t1 =
           List.fold_left (fun m s -> max m s.end_ns) neg_infinity spans
         in
         let extras =
           (if tr.orphans = [] then []
            else [ Printf.sprintf "%d orphaned" (List.length tr.orphans) ])
           @
           if tr.duplicates = 0 then []
           else [ Printf.sprintf "%d duplicate" tr.duplicates ]
         in
         let extras =
           if extras = [] then ""
           else " (" ^ String.concat ", " extras ^ ")"
         in
         Buffer.add_string buf
           (Printf.sprintf "trace %d: %d spans, %.3f ms%s\n" tr.id
              tr.span_count
              ((t1 -. t0) /. 1e6)
              extras);
         Buffer.add_string buf
           (Printf.sprintf "  %10s %10s  %s\n" "start ms" "end ms" "span");
         let rec walk depth node =
           let s = node.span in
           let attrs =
             match s.attrs with
             | [] -> ""
             | l ->
               " ["
               ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
               ^ "]"
           in
           Buffer.add_string buf
             (Printf.sprintf "  %10.3f %10.3f  %s%s:%s%s\n"
                ((s.start_ns -. t0) /. 1e6)
                ((s.end_ns -. t0) /. 1e6)
                (String.make (2 * depth) ' ')
                s.node s.name attrs);
           List.iter (walk (depth + 1)) node.children
         in
         List.iter (walk 0) tr.roots)
      traces;
    Buffer.contents buf
end

(* --- flight recorder ---------------------------------------------------- *)

module Flight = struct
  type incident = {
    seq : int;
    kind : string;
    reason : string;
    at_ns : float;
    spans : Trace.span list;
    metrics : string;
  }

  type recorder = {
    fl_reg : t;
    mutable fl_seq : int;
    mutable fl_rev : incident list; (* newest first *)
    mutable fl_suppressed : int;
    fl_c_incidents : Counter.h;
    fl_c_suppressed : Counter.h;
  }

  (* Incidents a recorder holds. *)
  let max_incidents = 8

  let create reg =
    {
      fl_reg = reg;
      fl_seq = 0;
      fl_rev = [];
      fl_suppressed = 0;
      fl_c_incidents = Counter.make reg "obs.flight.incidents";
      fl_c_suppressed = Counter.make reg "obs.flight.suppressed";
    }

  (* Freeze the registry's current trace ring and metric values.  The
     buffer is bounded: once [max_incidents] incidents are held, further
     triggers only count as suppressed — an anomaly storm cannot grow
     memory without bound or turn the trigger path into a hot loop. *)
  let trigger r ~kind ~reason =
    if r.fl_reg.on then begin
      if List.length r.fl_rev >= max_incidents then begin
        r.fl_suppressed <- r.fl_suppressed + 1;
        Counter.incr r.fl_c_suppressed
      end
      else begin
        r.fl_seq <- r.fl_seq + 1;
        Counter.incr r.fl_c_incidents;
        r.fl_rev <-
          {
            seq = r.fl_seq;
            kind;
            reason;
            at_ns = now r.fl_reg;
            spans = Trace.spans r.fl_reg;
            metrics = to_json_lines r.fl_reg;
          }
          :: r.fl_rev
      end
    end

  let incidents r = List.rev r.fl_rev
  let count r = List.length r.fl_rev
  let suppressed r = r.fl_suppressed

  let clear r =
    r.fl_rev <- [];
    r.fl_suppressed <- 0

  let to_chrome_json inc = Trace.to_chrome_json (Trace.assemble inc.spans)

  let report inc =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "incident #%d kind=%s t=%.6fs\n" inc.seq inc.kind
         (inc.at_ns /. 1e9));
    Buffer.add_string buf (Printf.sprintf "reason: %s\n" inc.reason);
    Buffer.add_string buf
      (Printf.sprintf "spans captured: %d\n" (List.length inc.spans));
    Buffer.add_string buf "--- metrics at trigger ---\n";
    Buffer.add_string buf inc.metrics;
    if inc.spans <> [] then begin
      Buffer.add_string buf "--- trace waterfall ---\n";
      Buffer.add_string buf (Trace.to_waterfall (Trace.assemble inc.spans))
    end;
    Buffer.contents buf
end
