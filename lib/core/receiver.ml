(* Receiver-side message processing — Algorithm 2 of the paper.

   The expensive steps (MaxMatch over candidate formats, Ecode compilation,
   conversion planning) run only the first time a given incoming format is
   seen; the resulting pipeline — transform, then handler — is cached and
   reused for every later message of that format. *)

open Pbio

type handler = Value.t -> unit

type registered = {
  fmt : Ptype.record;
  handler : handler;
}

(* How a delivered message reached its handler. *)
type via =
  | Exact                  (* same structure; no work per message *)
  | Reordered              (* perfect match, different field order *)
  | Converted              (* imperfect match: defaults filled, extras dropped *)
  | Morphed of string      (* Ecode retro-transformation to the named format *)
  | Morphed_converted of string (* transformation, then structural conversion *)

let pp_via ppf = function
  | Exact -> Fmt.string ppf "exact"
  | Reordered -> Fmt.string ppf "reordered"
  | Converted -> Fmt.string ppf "converted"
  | Morphed t -> Fmt.pf ppf "morphed(%s)" t
  | Morphed_converted t -> Fmt.pf ppf "morphed+converted(%s)" t

type outcome =
  | Delivered of { format_name : string; via : via }
  | Defaulted
  | Rejected of string

let pp_outcome ppf = function
  | Delivered { format_name; via } ->
    Fmt.pf ppf "delivered to %s via %a" format_name pp_via via
  | Defaulted -> Fmt.string ppf "default handler"
  | Rejected reason -> Fmt.pf ppf "rejected: %s" reason

type stats = {
  mutable cache_hits : int;
  mutable cold_paths : int;
  mutable delivered : int;
  mutable rejected : int;
  mutable defaulted : int;
  mutable transform_failures : int;
  mutable quarantined : int;
}

type accept = {
  via : via;
  plan : Plan.t;
  transform : Value.t -> Value.t;
  (* [Plan.transform plan], built with the plan: what a value delivery
     runs, and what a staged wire delivery runs after its decode *)
  handler : handler;
  delivered : outcome;
  (* what every delivery on this plan returns, built with it *)
  span_hit : (string * string) list;
  span_miss : (string * string) list;
  span_hit_fused : (string * string) list;
  span_miss_fused : (string * string) list;
  (* the [morph.deliver] span's attributes, built with the plan so a
     traced delivery builds none: cache hit or miss, Ecode none, reuse or
     compile, [convert=fused] when a fused plan built the value, then how
     the plan was derived (source/target formats, chain hops, mismatch
     ratio) *)
}

type pipeline =
  | Accept of accept
  | Reject of string

type cache_entry = {
  key : Meta.format_meta;
  pipeline : pipeline;
  breaker : Breaker.t;
  (* counts run-time transform failures since the last success; the third
     trips it and quarantines the pipeline.  It has no cooldown, so it
     stays open for good and turns every later delivery away. *)
}

(* All the knobs a receiver is created with, collapsed into one record so
   call sites name only what they change. *)
module Config = struct
  type t = {
    thresholds : Maxmatch.thresholds;
    metrics : Obs.t;
    ctx : Ctx.t;
    (* capability context for plans: they compile their wire closures
       from [Ctx.codecs ctx] and record their compiles and staged decodes
       into its registry *)
    flight : Obs.Flight.recorder option;
    (* anomaly hook: each quarantine (breaker trip on a cached pipeline)
       triggers a flight-recorder incident capture *)
  }

  let default =
    {
      thresholds = Maxmatch.default_thresholds;
      metrics = Obs.null;
      ctx = Ctx.default;
      flight = None;
    }

  let v ?(thresholds = default.thresholds) ?(metrics = Obs.null)
      ?(ctx = default.ctx) ?flight () =
    { thresholds; metrics; ctx; flight }
end

(* Handles into the configured Obs registry; [rm_on] gates the clock reads
   around MaxMatch, planning and per-message transforms. *)
type rmetrics = {
  rm_on : bool;
  rm_reg : Obs.t;
  rm_cache_hits : Obs.Counter.h;
  rm_cache_misses : Obs.Counter.h;
  rm_delivered : Obs.Counter.h;
  rm_rejected : Obs.Counter.h;
  rm_defaulted : Obs.Counter.h;
  rm_transform_failures : Obs.Counter.h;
  rm_quarantined : Obs.Counter.h;
  rm_structural_lookups : Obs.Counter.h;
  rm_maxmatch_ns : Obs.Histogram.h;
  rm_plan_ns : Obs.Histogram.h;
  rm_morph_ns : Obs.Histogram.h;
  rm_mismatch_ratio : Obs.Histogram.h;
  rm_chain_depth : Obs.Histogram.h;
  rm_fused_ns : Obs.Histogram.h;
  rm_staged_ns : Obs.Histogram.h;
}

let make_rmetrics reg =
  {
    rm_on = Obs.enabled reg;
    rm_reg = reg;
    rm_cache_hits = Obs.Counter.make reg "receiver.cache_hits";
    rm_cache_misses = Obs.Counter.make reg "receiver.cache_misses";
    rm_delivered = Obs.Counter.make reg "receiver.delivered";
    rm_rejected = Obs.Counter.make reg "receiver.rejected";
    rm_defaulted = Obs.Counter.make reg "receiver.defaulted";
    rm_transform_failures = Obs.Counter.make reg "receiver.transform_failures";
    rm_quarantined = Obs.Counter.make reg "receiver.quarantined";
    rm_structural_lookups = Obs.Counter.make reg "receiver.structural_lookups";
    rm_maxmatch_ns = Obs.Histogram.make reg ~unit_:"ns" "receiver.maxmatch_ns";
    rm_plan_ns = Obs.Histogram.make reg ~unit_:"ns" "receiver.plan_ns";
    rm_morph_ns = Obs.Histogram.make reg ~unit_:"ns" "receiver.morph_ns";
    rm_mismatch_ratio =
      Obs.Histogram.make reg ~buckets:Obs.ratio_buckets "receiver.mismatch_ratio";
    rm_chain_depth =
      Obs.Histogram.make reg ~buckets:[ 0.; 1.; 2.; 3.; 4.; 6.; 8. ]
        "receiver.chain_depth";
    (* bytes to target value, split by path, so the fused win shows up in
       [stats] next to the staged decode-then-transform baseline: each
       stops where the value is built, before the handler *)
    rm_fused_ns = Obs.Histogram.make reg ~unit_:"ns" "codec.fused_ns";
    rm_staged_ns = Obs.Histogram.make reg ~unit_:"ns" "codec.staged_ns";
  }

(* How many meta values a receiver recognises by identity ([==]) before it
   falls back to the structural key ([Meta.hash] + [Meta.equal]). *)
let identity_slots = 8

(* How many pipelines the structural table keeps, as the codec caches
   keep plans: a sender pushing fresh metas cannot grow it without bound. *)
let max_pipelines = 512

type slot = {
  slot_meta : Meta.format_meta; (* the value delivered, not [entry.key] *)
  slot_entry : cache_entry;
}

type t = {
  config : Config.t;
  m : rmetrics;
  mutable registered : registered list; (* registration order *)
  mutable default_handler : (Meta.format_meta -> Value.t -> unit) option;
  mutable probe : (Value.t option -> outcome -> unit) option;
  cache : (Meta.format_meta, cache_entry) Lru.t;
  slots : slot option array;
  (* identity slots in front of [cache], filled round-robin at
     [next_slot]: callers hold one meta value per format, so a pointer
     comparison finds the pipeline without re-hashing the whole meta.
     [==] implies [Meta.equal]: metas are immutable and [Meta.equal] is
     reflexive. *)
  mutable next_slot : int;
  stats : stats;
}

let create ?(config = Config.default) () =
  {
    config;
    m = make_rmetrics config.Config.metrics;
    registered = [];
    default_handler = None;
    probe = None;
    cache = Lru.create ~equal:Meta.equal ~cap:max_pipelines;
    slots = Array.make identity_slots None;
    next_slot = 0;
    stats =
      { cache_hits = 0; cold_paths = 0; delivered = 0; rejected = 0; defaulted = 0;
        transform_failures = 0; quarantined = 0 };
  }

let register t (fmt : Ptype.record) (handler : handler) : unit =
  (match Ptype.validate fmt with
   | Ok () -> ()
   | Error e -> invalid_arg (Fmt.str "Receiver.register: %s: %s" e.Ptype.where e.Ptype.what));
  t.registered <- t.registered @ [ { fmt; handler } ];
  (* Registered formats change the matching space: throw away planned
     pipelines so they are recomputed against the new set. *)
  Lru.reset t.cache;
  Array.fill t.slots 0 identity_slots None;
  t.next_slot <- 0

let set_default_handler t f = t.default_handler <- Some f

(* Observe every processed message: the transformed value (when one was
   produced) and the outcome.  Used by the chaos harness to compare
   per-record morphing outcomes across runs. *)
let set_delivery_probe t f = t.probe <- f

let stats t = t.stats

let handler_for t (fmt : Ptype.record) : handler option =
  List.find_map
    (fun r -> if Ptype.equal_record r.fmt fmt then Some r.handler else None)
    t.registered

(* --- planning (the cold path) ------------------------------------------- *)

(* MaxMatch (Algorithm 1) under the receiver's thresholds, reduced to the
   (f1, f2, perfect?, ratio) the planner needs. *)
let run_max_match t (set1 : Ptype.record list) (set2 : Ptype.record list) :
  (Ptype.record * Ptype.record * bool * float) option =
  let t0 = if t.m.rm_on then Obs.now t.m.rm_reg else 0. in
  let result =
    Option.map
      (fun (m : Maxmatch.match_result) ->
         Obs.Histogram.observe t.m.rm_mismatch_ratio m.Maxmatch.ratio;
         (m.f1, m.f2, Maxmatch.is_perfect m, m.Maxmatch.ratio))
      (Maxmatch.max_match ~thresholds:t.config.Config.thresholds set1 set2)
  in
  if t.m.rm_on then
    Obs.Histogram.observe t.m.rm_maxmatch_ns (Obs.now t.m.rm_reg -. t0);
  result

(* The four [morph.deliver] attribute lists of an accepted plan: cache
   hit, miss, hit with a fused value, miss with a fused value. *)
let span_attrs ~(source : Ptype.record) ~(target : Ptype.record) ~via ~hops ~ratio =
  let provenance =
    [
      ("source", source.Ptype.rname);
      ("target", target.Ptype.rname);
      ("via", Fmt.str "%a" pp_via via);
      ("chain_hops", string_of_int hops);
      ("mismatch_ratio", Printf.sprintf "%.3f" ratio);
    ]
  in
  let attrs ~hit ~fused =
    let ecode = if hops = 0 then "none" else if hit then "reuse" else "compile" in
    ("cache", if hit then "hit" else "miss") :: ("ecode", ecode)
    :: (if fused then ("convert", "fused") :: provenance else provenance)
  in
  ( attrs ~hit:true ~fused:false,
    attrs ~hit:false ~fused:false,
    attrs ~hit:true ~fused:true,
    attrs ~hit:false ~fused:true )

(* Build the per-format pipeline following Algorithm 2, lines 11-30: the
   decided path compiled into a plan, which picks its own engine. *)
let plan_uninstrumented ?engine t (meta : Meta.format_meta) : pipeline =
  let fm = meta.Meta.body in
  let accept ?(specs = []) target via ratio =
    match Plan.compile ?engine ~ctx:t.config.Config.ctx ~source:fm ~specs ~target () with
    | Error e -> Reject (Err.to_string e)
    | Ok plan ->
      let span_hit, span_miss, span_hit_fused, span_miss_fused =
        span_attrs ~source:fm ~target ~via ~hops:(List.length specs) ~ratio
      in
      Accept
        {
          via;
          plan;
          transform = Plan.transform plan;
          handler = Option.get (handler_for t target);
          delivered = Delivered { format_name = target.Ptype.rname; via };
          span_hit;
          span_miss;
          span_hit_fused;
          span_miss_fused;
        }
  in
  (* The set of formats fm can be transformed to, multi-hop chains
     included, each with its shortest spec path. *)
  let reachable = Xform.reachable meta in
  (* Candidate registered formats: same name as fm (the paper's rule), or
     the name of any transformation target on offer — a transformation
     declares the role equivalence that names normally imply. *)
  let names = List.map (fun (f, _) -> f.Ptype.rname) reachable in
  let fr =
    List.filter_map
      (fun r -> if List.mem r.fmt.Ptype.rname names then Some r.fmt else None)
      t.registered
  in
  if fr = [] then Reject (Fmt.str "no registered format named %S" fm.Ptype.rname)
  else
    (* Line 11: MaxMatch(fm, Fr) over same-name formats; only a perfect
       match short-circuits. *)
    let fr_same = List.filter (fun f -> f.Ptype.rname = fm.Ptype.rname) fr in
    match run_max_match t [ fm ] fr_same with
    | Some (_, f2, true, ratio) ->
      accept f2 (if Ptype.equal_record fm f2 then Exact else Reordered) ratio
    | Some _ | None ->
      (* Line 16: MaxMatch(Ft, Fr). *)
      (match run_max_match t (List.map fst reachable) fr with
       | None ->
         Reject
           (Fmt.str "no acceptable match for format %S within thresholds \
                     (diff <= %d, Mr <= %.2f)"
              fm.Ptype.rname t.config.Config.thresholds.Maxmatch.diff_threshold
              t.config.Config.thresholds.Maxmatch.mismatch_threshold)
       | Some (mf1, mf2, perfect, ratio) ->
         (* Lines 21-24 compose the fm -> f1 transformation over each hop
            of the chain; lines 26-29 convert an imperfect match, filling
            defaults for missing fields and dropping those absent from f2. *)
         let same = Ptype.equal_record mf1 mf2 in
         if Ptype.equal_record mf1 fm then
           accept mf2 (if same then Exact else if perfect then Reordered else Converted) ratio
         else
           match
             List.find_map
               (fun (f, path) -> if Ptype.equal_record f mf1 then Some path else None)
               reachable
           with
           | None | Some [] -> Reject "internal: matched transformation target has no spec path"
           | Some specs ->
             Obs.Histogram.observe t.m.rm_chain_depth (float_of_int (List.length specs));
             let name = mf1.Ptype.rname in
             accept ~specs mf2 (if same then Morphed name else Morphed_converted name) ratio)

let plan_pipeline ?engine t (meta : Meta.format_meta) : pipeline =
  if not t.m.rm_on then plan_uninstrumented ?engine t meta
  else begin
    let t0 = Obs.now t.m.rm_reg in
    let p = plan_uninstrumented ?engine t meta in
    Obs.Histogram.observe t.m.rm_plan_ns (Obs.now t.m.rm_reg -. t0);
    p
  end

(* --- delivery ------------------------------------------------------------ *)

(* The pipeline for [meta] by identity: a slot holding this very value. *)
let rec find_slot t (meta : Meta.format_meta) i : cache_entry option =
  if i = identity_slots then None
  else
    match t.slots.(i) with
    | Some { slot_meta; slot_entry } when slot_meta == meta -> Some slot_entry
    | Some _ | None -> find_slot t meta (i + 1)

let fill_slot t (meta : Meta.format_meta) (entry : cache_entry) : unit =
  t.slots.(t.next_slot) <- Some { slot_meta = meta; slot_entry = entry };
  t.next_slot <- (t.next_slot + 1) mod identity_slots

(* The pipeline for [meta] by structure ([hash], its [Meta.hash], then
   [Meta.equal]), refreshed as the table's most recently used. *)
let find_cached t ~hash (meta : Meta.format_meta) : cache_entry option =
  Lru.find t.cache ~hash meta

let cache_pipeline t ~hash (meta : Meta.format_meta) (p : pipeline) : cache_entry =
  let breaker = Breaker.create () in
  let entry = { key = meta; pipeline = p; breaker } in
  ignore (Lru.add t.cache ~hash meta entry : int);
  entry

let breaker_state t (meta : Meta.format_meta) : Breaker.state option =
  Option.map (fun e -> Breaker.state e.breaker) (find_cached t ~hash:(Meta.hash meta) meta)

let probe t (v : Value.t option) (o : outcome) : unit =
  match t.probe with Some f -> f v o | None -> ()

let quarantined_reason (entry : cache_entry) =
  Fmt.str "quarantined after %d consecutive transformation failures"
    (Breaker.consecutive_failures entry.breaker)

(* A transformation that keeps failing at run time is quarantined: its
   breaker trips, and the breaker alone gates the pipeline from then on.
   It stays open for good, so a poisonous format neither crashes the
   receiver nor pays planning or transformation work on every further
   message. *)
let quarantine t (entry : cache_entry) : unit =
  t.stats.quarantined <- t.stats.quarantined + 1;
  Obs.Counter.incr t.m.rm_quarantined;
  (match t.config.Config.flight with
   | Some fl ->
     Obs.Flight.trigger fl ~kind:"quarantine"
       ~reason:(Fmt.str "pipeline for format #%d %s" (Meta.hash entry.key)
                  (quarantined_reason entry))
   | None -> ())

(* The one admission rule for every Accept delivery — value, fused wire or
   staged wire — checked before its plan runs: a tripped breaker fast-fails
   without paying the transform. *)
let admit (entry : cache_entry) : bool =
  match entry.pipeline with
  | Reject _ -> false
  | Accept _ ->
    (match Breaker.state entry.breaker with
     | Breaker.Closed -> true
     | Breaker.Open | Breaker.Half_open -> false)

let reject t reason : outcome =
  t.stats.rejected <- t.stats.rejected + 1;
  Obs.Counter.incr t.m.rm_rejected;
  let o = Rejected reason in
  probe t None o;
  o

(* Algorithm 2's fallback: the default handler when one is set, otherwise a
   rejection.  Shared by unmatched formats and the deliveries an open
   breaker turns away. *)
let reject_or_default t (meta : Meta.format_meta) (v : Value.t) reason : outcome =
  match t.default_handler with
  | Some f ->
    f meta v;
    t.stats.defaulted <- t.stats.defaulted + 1;
    Obs.Counter.incr t.m.rm_defaulted;
    let o = Defaulted in
    probe t None o;
    o
  | None -> reject t reason

(* An admitted delivery's value, in the target layout, reaches its handler;
   the success ends the breaker's failure streak.  Handler exceptions
   propagate: they are application bugs, not message faults. *)
let hand_over t (entry : cache_entry) (a : accept) (v' : Value.t) : outcome =
  ignore (Breaker.record_success entry.breaker : bool);
  a.handler v';
  t.stats.delivered <- t.stats.delivered + 1;
  Obs.Counter.incr t.m.rm_delivered;
  probe t (Some v') a.delivered;
  a.delivered

(* A transformation that fails at run time on values its code never
   anticipated (hostile or corrupt input) rejects the message rather than
   crashing the receiver, and counts against the breaker. *)
let transform_failed t (entry : cache_entry) msg : outcome =
  t.stats.rejected <- t.stats.rejected + 1;
  t.stats.transform_failures <- t.stats.transform_failures + 1;
  Obs.Counter.incr t.m.rm_rejected;
  Obs.Counter.incr t.m.rm_transform_failures;
  (* without a cooldown the breaker never reads its trip time *)
  if Breaker.record_failure entry.breaker ~now:0. then quarantine t entry;
  let o = Rejected (Fmt.str "transformation failed: %s" msg) in
  probe t None o;
  o

(* What a delivery does, inside its trace span. *)
type step =
  | Transform of Value.t (* admitted: run the transform on the sender's value, then the handler *)
  | Hand_over of Value.t (* admitted, and a fused wire plan already built the target value *)
  | Failed of string (* admitted, and the plan failed on the message *)
  | Turn_away of Value.t (* a Reject pipeline, or a breaker that refused admission *)

(* An admitted transform, then the handler.  [start] is the span's start,
   which is also the morph's (unread when the registry is off).  A staged
   wire delivery passes its decode's start as [staged_from]: the
   transform's end closes [receiver.morph_ns] and [codec.staged_ns] with
   one clock read. *)
let transform_step ?staged_from t ~start (entry : cache_entry) (a : accept) v : outcome =
  match a.transform v with
  | v' ->
    if t.m.rm_on then begin
      let stop = Obs.now t.m.rm_reg in
      Obs.Histogram.observe t.m.rm_morph_ns (stop -. start);
      match staged_from with
      | Some t0 -> Obs.Histogram.observe t.m.rm_staged_ns (stop -. t0)
      | None -> ()
    end;
    hand_over t entry a v'
  | exception Plan.Failed (Transform msg) -> transform_failed t entry msg

let run_step t (entry : cache_entry) (meta : Meta.format_meta) step : outcome =
  match entry.pipeline, step with
  | Reject reason, (Transform v | Hand_over v | Turn_away v) -> reject_or_default t meta v reason
  | Reject reason, Failed _ -> reject t reason
  | Accept _, Turn_away v -> reject_or_default t meta v (quarantined_reason entry)
  | Accept a, Hand_over v -> hand_over t entry a v
  | Accept _, Failed msg -> transform_failed t entry msg
  | Accept a, Transform v -> transform_step t ~start:0. entry a v

let reject_hit = [ ("cache", "hit") ]
let reject_miss = [ ("cache", "miss") ]

(* [run_step] under a trace-only span (no histogram, so the flat [span:*]
   metric names stay unchanged) carrying the morph provenance of this
   message.  [start_ns] is a clock read the caller has just made.  An
   admitted transform is timed from the span's start, read here when the
   caller made none; every other step passes the caller's read through,
   so a fused delivery allocates nothing for the morph's timing. *)
let deliver_step ?start_ns ?staged_from t ~hit (entry : cache_entry)
    (meta : Meta.format_meta) step : outcome =
  if not t.m.rm_on then run_step t entry meta step
  else begin
    let attrs =
      match entry.pipeline, step with
      | Accept a, (Hand_over _ | Failed _) -> if hit then a.span_hit_fused else a.span_miss_fused
      | Accept a, (Transform _ | Turn_away _) -> if hit then a.span_hit else a.span_miss
      | Reject _, _ -> if hit then reject_hit else reject_miss
    in
    match entry.pipeline, step with
    | Accept a, Transform v ->
      let start = match start_ns with Some s -> s | None -> Obs.now t.m.rm_reg in
      Obs.Trace.with_span ~start_ns:start ~attrs t.m.rm_reg "morph.deliver" (fun () ->
          transform_step ?staged_from t ~start entry a v)
    | _ ->
      Obs.Trace.with_span ?start_ns ~attrs t.m.rm_reg "morph.deliver" (fun () ->
          run_step t entry meta step)
  end

let count_hit t =
  t.stats.cache_hits <- t.stats.cache_hits + 1;
  Obs.Counter.incr t.m.rm_cache_hits

(* Cache lookup with hit/miss accounting: the identity slots first, then the
   structural table, planning and caching the pipeline on a miss.  Whatever
   a slot miss finds or plans takes the next slot, keyed by the meta value
   delivered, so the next message carrying that value skips the
   structural key.  A slot miss hashes the meta once, for the lookup and
   for the insert. *)
let lookup t (meta : Meta.format_meta) : bool * cache_entry =
  match find_slot t meta 0 with
  | Some entry ->
    count_hit t;
    (true, entry)
  | None ->
    Obs.Counter.incr t.m.rm_structural_lookups;
    let hash = Meta.hash meta in
    let hit, entry =
      match find_cached t ~hash meta with
      | Some entry ->
        count_hit t;
        (true, entry)
      | None ->
        t.stats.cold_paths <- t.stats.cold_paths + 1;
        Obs.Counter.incr t.m.rm_cache_misses;
        (false, cache_pipeline t ~hash meta (plan_pipeline t meta))
    in
    fill_slot t meta entry;
    (hit, entry)

let deliver t (meta : Meta.format_meta) (v : Value.t) : outcome =
  let hit, entry = lookup t meta in
  deliver_step t ~hit entry meta (if admit entry then Transform v else Turn_away v)

let reject_wire t e = reject t (Fmt.str "wire decode failed: %s" (Err.to_string e))

(* Decode a whole wire message (as produced by [Pbio.Wire.encode]) and
   deliver it.  [meta] must describe the message's wire format.

   An admitted delivery runs the cached plan's compiled closure for the
   message's byte order: a fused plan decodes straight into the target
   layout (the sender-format value tree is never built), a staged plan
   decodes, then transforms.  A collapsed chain's fused plan applies its
   coercions only once the whole message has decoded, so a coercion that
   fails is a transformation failure, as on the staged path, and never a
   decode failure.  A Reject pipeline or a refusing breaker still decodes
   the message, for the default handler. *)
let deliver_wire t (meta : Meta.format_meta) (message : string) : outcome =
  let hit, entry = lookup t meta in
  match entry.pipeline with
  | Accept { plan; _ } when admit entry ->
    let t0 = if t.m.rm_on then Obs.now t.m.rm_reg else 0. in
    (match Plan.decode plan message with
     | exception Plan.Failed (Decode e) -> reject_wire t e
     | exception Plan.Failed (Transform msg) -> deliver_step t ~hit entry meta (Failed msg)
     | v when Plan.kind plan = Plan.Fused ->
       (* the decode's end is the span's start: one clock read *)
       let start_ns =
         if t.m.rm_on then begin
           let t1 = Obs.now t.m.rm_reg in
           Obs.Histogram.observe t.m.rm_fused_ns (t1 -. t0);
           Some t1
         end
         else None
       in
       deliver_step ?start_ns t ~hit entry meta (Hand_over v)
     | v ->
       (* the decode's end starts the span and the morph, and the
          transform's end stops [codec.staged_ns] *)
       deliver_step ~staged_from:t0 t ~hit entry meta (Transform v))
  | Accept _ | Reject _ ->
    (match Wire.decode ~ctx:t.config.Config.ctx meta.Meta.body message with
     | Ok v -> deliver_step t ~hit entry meta (Turn_away v)
     | Error e -> reject_wire t e)

let plan ?engine t (meta : Meta.format_meta) : (Plan.t, string) result =
  match plan_pipeline ?engine t meta with
  | Accept { plan; _ } -> Ok plan
  | Reject reason -> Error reason

(* Describe, without delivering or caching, what Algorithm 2 would do with
   messages of this format — for diagnostics and operator tooling.  Wire
   closures compile on a plan's first message, so none is compiled here. *)
let explain t (meta : Meta.format_meta) : string =
  match plan_pipeline t meta with
  | Reject reason -> Fmt.str "reject: %s" reason
  | Accept { via; plan; _ } ->
    Fmt.str "deliver to %s via %a [%a]" (Plan.target plan).Ptype.rname pp_via via
      Plan.pp plan
