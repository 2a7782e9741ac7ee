(* One workload in one process: set up, measure the timed window, check
   the outputs, and report every metric.  A plain run reports the
   end-to-end metrics; a traced run reports the per-layer metrics and
   writes the trace files. *)

open Workload

(* The frozen op counts size a window of this many seconds; [--seconds]
   scales them linearly, so outcomes stay a pure function of the seed and
   the window length. *)
let reference_seconds = 10.

type metric = { name : string; value : float; unit_ : string }

type result = {
  workload : string;
  metrics : metric list;
  correct : bool;
  attempted : int;
  failed : int;
  digest : string;
  slowdown : float;  (** the window's median slowdown; 0. when not measured *)
  error : string option;
}

let m name value unit_ = { name; value; unit_ }

(* The window is cut into segments, each timed against the machine's
   speed of the moment (below). *)
let segments = 40

let ops_for (s : spec) ~seconds =
  max segments (int_of_float (Float.round (float_of_int s.ops *. seconds /. reference_seconds)))

(* Spans a registry keeps before its trace ring wraps. *)
let trace_ring = Obs.Trace.capacity (Obs.create ())

(* A run shorter than a second only checks outputs (the smoke test): it
   skips what exists to make the numbers steady. *)
let checks_only ~seconds = seconds < 1.

(* 2% of the ops, and enough deliveries to fill every receiver's trace
   ring: until the rings wrap, each delivery's span stays live, and on
   fan-out's 32 sinks the growing heap slowed deliveries by a quarter over
   the first third of the window. *)
let warmup_for (s : spec) ~ops ~seconds =
  if checks_only ~seconds then max 1 (ops / 50)
  else max (ops / 50) (((trace_ring * s.receivers) + s.per_op - 1) / s.per_op)

let seconds_of ns = float_of_int ns /. 1e9

let median = Workload.median

(* Online CPUs, whatever this process's affinity ([/proc] files have no
   length, so they are read line by line). *)
let nproc () =
  match open_in "/proc/cpuinfo" with
  | ic ->
    let n = ref 0 in
    (try
       while true do
         let l = input_line ic in
         if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
       done
     with End_of_file -> close_in ic);
    max 1 !n
  | exception Sys_error _ -> Domain.recommended_domain_count ()

(* CPU placement.  The two CPUs of a shared host can run at different
   speeds for minutes at a time (channel-keep pinned with taskset: 27.5k
   msg/s on one CPU, 17.5k on the other).  A single-domain run is therefore
   pinned, one window segment (with its cold-sample group and its
   calibrations) on CPU 0 and the next on CPU 1, set-ups alike: each
   calibration reads the CPU its segment ran on, and every run spends the
   same share of its time on each CPU.  Without [taskset], or with one CPU,
   nothing moves. *)
let taskset cpus =
  match
    Unix.open_process_args_in "taskset"
      [| "taskset"; "-a"; "-p"; "-c"; cpus; string_of_int (Unix.getpid ()) |]
  with
  | ic ->
    (try
       while true do
         ignore (input_line ic : string)
       done
     with End_of_file -> ());
    Unix.close_process_in ic = Unix.WEXITED 0
  | exception Unix.Unix_error _ -> false

let placement = lazy (nproc () >= 2 && taskset "0")

(* Put a single-domain run on CPU [k mod 2]; a multi-domain one keeps
   every CPU. *)
let place (s : spec) k =
  if Lazy.force placement then
    ignore
      (taskset
         (if s.domains = 1 then string_of_int (k mod 2)
          else Printf.sprintf "0-%d" (nproc () - 1))
       : bool)

(* --- machine speed ----------------------------------------------------- *)

(* The reference machine is a 2-vCPU guest on a shared host, and the
   host's other tenants slow it down in spells of seconds to minutes: a
   fixed compute loop reads 12 ms in a quiet second and 16-18 ms in a busy
   one, on either CPU, and a whole 10 s run can fall inside one spell.  No
   choice of segments inside a run removes that, so every time metric is
   scaled to the machine's quiet speed instead.  Around each segment and
   each set-up the benchmark times a fixed piece of OCaml work that calls
   nothing under test (sorting, a short-lived list, string hashing; small
   blocks only, on an emptied minor heap, so no collection lands in it).
   Over the segments of a run its speed tracked the delivery rate with a
   correlation of 0.84-0.95, and scaling by it cut the segment-to-segment
   variation of the rate from 13-19% to 6-10%. *)

let calibration_strings = Array.init 16 (fun i -> Printf.sprintf "node%04d.cc.gatech.edu" (i * 37))

let calibration_pass () =
  let h = ref 0 in
  for r = 0 to 15 do
    let a = Array.init 200 (fun i -> ((i * 7919) + (r * 104729)) land 4095) in
    Array.sort compare a;
    let l = Array.fold_left (fun acc x -> x :: acc) [] a in
    h := !h + List.fold_left ( + ) 0 l + Hashtbl.hash calibration_strings.(r)
  done;
  ignore (Sys.opaque_identity !h)

(* Median time of five passes, in ns. *)
let calibrate () =
  Gc.minor ();
  median
    (Array.init 5 (fun _ ->
         let t0 = now_ns () in
         calibration_pass ();
         float_of_int (now_ns () - t0)))

(* A pass on the reference machine in a quiet spell: the lower decile of
   the passes taken around three full runs was 404-422 us. *)
let reference_calibration_ns = 400_000.

(* The machine's slowdown over a stretch of work: calibrations [c0] before
   and [c1] after it, over the reference.  A time divided by the slowdown,
   or a rate multiplied by it, is what the reference machine gives when
   quiet. *)
let slowdown c0 c1 = (c0 +. c1) /. 2. /. reference_calibration_ns

(* --- the timed window ------------------------------------------------------ *)

(* The closed loop over ops [first, first + n), in [segments] equal
   segments (the last takes the remainder), each started by [between k]
   outside its timing.  Each call's wall time goes into its segment's
   histogram in [hists].  Returns each segment's delivery rate and
   slowdown, and the bytes allocated inside the segments.  Nothing inside
   a segment allocates but the program. *)
let window (w : t) ~step ~between ~first ~n hists =
  let rates = Array.make segments 0. in
  let slowdowns = Array.make segments 1. in
  let alloc = ref 0. in
  let seg = n / segments in
  for k = 0 to segments - 1 do
    between k;
    let hist = hists.(k) in
    let lo = first + (k * seg) in
    let hi = if k = segments - 1 then first + n else lo + seg in
    let c0 = calibrate () in
    let a0 = Gc.allocated_bytes () in
    let d0 = w.delivered () and t0 = now_ns () in
    for i = lo to hi - 1 do
      w.before i;
      let t = now_ns () in
      step i;
      Hist.record hist (now_ns () - t)
    done;
    rates.(k) <- float_of_int (w.delivered () - d0) /. seconds_of (now_ns () - t0);
    alloc := !alloc +. (Gc.allocated_bytes () -. a0);
    slowdowns.(k) <- slowdown c0 (calibrate ())
  done;
  (rates, slowdowns, !alloc)

let new_hists () = Array.init segments (fun _ -> Hist.create ())

(* The median segment's delivery rate at the reference speed. *)
let reference_rate rates slowdowns = median (Array.mapi (fun k r -> r *. slowdowns.(k)) rates)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> 0.
      in
      go ())

(* Inputs, instance and reference checks: what a run pays before its first
   delivery, timed as one set-up.  Each starts on a collected heap, so a
   major cycle owed by the one before does not land in it. *)
let setup (s : spec) ~seed ~total ~k =
  place s k;
  Gc.full_major ();
  let c0 = calibrate () in
  let t0 = now_ns () in
  let w = s.setup ~seed ~total in
  let t = seconds_of (now_ns () - t0) in
  (w, t /. slowdown c0 (calibrate ()))

(* The first [warm] ops, then a full major GC, right before a window. *)
let warm_up (w : t) ~warm =
  for i = 0 to warm - 1 do
    w.before i;
    w.step i
  done;
  Gc.full_major ()

(* After the window: drain, then every op of it must have delivered. *)
let check_counts (w : t) ~expected ~d0 =
  w.drain ();
  let got = w.delivered () - d0 in
  if got <> expected then
    fail "delivered %d of %d expected deliveries" got expected

let guard workload f =
  try f ()
  with Check_failed msg ->
    { workload; metrics = []; correct = false; attempted = 0; failed = 0; digest = "";
      slowdown = 0.; error = Some msg }

let plain (s : spec) ~seed ~seconds =
  guard s.name (fun () ->
      let ops = ops_for s ~seconds in
      let warm = warmup_for s ~ops ~seconds in
      let short = checks_only ~seconds in
      let cold_us = s.cold_us () in
      let w, setup0 = setup s ~seed ~total:(warm + ops) ~k:0 in
      warm_up w ~warm;
      w.mark_window ();
      let d0 = w.delivered () + w.pending () in
      let hists = new_hists () in
      (* cold deliveries in a group before each segment, on its CPU, so a
         group shares its segment's slowdown *)
      let per_group = if short then 1 else 5 in
      let cold = Array.make segments [||] in
      let between k =
        place s k;
        cold.(k) <- cold_us per_group
      in
      let rates, slowdowns, alloc = window w ~step:w.step ~between ~first:warm ~n:ops hists in
      let rss = peak_rss_mb () in
      (* every sample at the reference speed *)
      let hist = Hist.create () in
      Array.iteri (fun k h -> Hist.add_scaled hist ~f:(1. /. slowdowns.(k)) h) hists;
      let cold =
        Array.concat (Array.to_list (Array.mapi (fun k -> Array.map (fun x -> x /. slowdowns.(k))) cold))
      in
      let attempted = ops * s.per_op in
      check_counts w ~expected:attempted ~d0;
      let failed = w.failures () and digest = w.digest () in
      w.close ();
      (* set up again, and report the median: set-up time is a metric, so
         work moved into it shows *)
      let setups =
        setup0
        :: List.init (if short then 0 else 4) (fun k ->
            let w', t = setup s ~seed ~total:(warm + ops) ~k:(k + 1) in
            w'.close ();
            t)
      in
      {
        workload = s.name;
        metrics =
          [
            m "msgs_per_s" (reference_rate rates slowdowns) "msg/s";
            m "lat_p50_us" (Hist.quantile hist 0.50 /. 1e3) "us";
            m "lat_p99_us" (Hist.quantile hist 0.99 /. 1e3) "us";
            m "cold_deliver_us" (median cold) "us";
            m "alloc_bytes_per_msg" (alloc /. float_of_int attempted) "B/msg";
            m "peak_rss_mb" rss "MB";
            m "setup_s" (median (Array.of_list setups)) "s";
          ];
        correct = true;
        attempted;
        failed;
        digest;
        slowdown = median slowdowns;
        error = None;
      })

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Read at start-up: once a run is placed on one CPU, the runtime
   recommends one domain. *)
let recommended_domains = Domain.recommended_domain_count ()

(* The machine half of a run descriptor, as JSON members. *)
let machine () =
  Printf.sprintf {|"nproc": %d, "recommended_domains": %d, "ocaml": "%s", "reference_calibration_ns": %s|}
    (nproc ()) recommended_domains Sys.ocaml_version (json_float reference_calibration_ns)

(* Everything a traced run measured, one object per line. *)
let layers_json tr ~header ~metrics ~extras =
  let metric x =
    Printf.sprintf {|    {"metric":"%s","value":%s,"unit":"%s"}|} x.name (json_float x.value) x.unit_
  in
  let extra (k, v) = Printf.sprintf {|    {"metric":"%s","value":%s}|} k (json_float v) in
  let layer l =
    Printf.sprintf {|    {"layer":"%s","calls":%d,"mean_ns":%s,"p50_ns":%s,"alloc_bytes":%s}|}
      (Tracer.span_name l) (Tracer.calls tr l)
      (json_float (Tracer.mean_ns tr l))
      (json_float (Tracer.p50_ns tr l))
      (json_float (Tracer.mean_alloc tr l))
  in
  let section name items = Printf.sprintf "  %S: [\n%s\n  ]" name (String.concat ",\n" items) in
  String.concat ",\n"
    [ "{\n  " ^ header;
      section "metrics" (List.map metric metrics);
      section "extras" (List.map extra extras);
      section "layers" (Array.to_list (Array.map layer Tracer.all)) ]
  ^ "\n}\n"

(* A traced run: the same instance measured untraced and then traced, at
   20% of the ops each, so trace.overhead_ratio compares like with like. *)
let traced (s : spec) ~seed ~seconds ~dir =
  guard s.name (fun () ->
      let ops = max segments (ops_for s ~seconds / 5) in
      let warm = warmup_for s ~ops ~seconds in
      let w, _ = setup s ~seed ~total:(warm + (2 * ops)) ~k:0 in
      warm_up w ~warm;
      let micro = w.prepare_trace () in
      let hists = new_hists () in
      let untraced =
        let rates, slowdowns, _ = window w ~step:w.step ~between:(place s) ~first:warm ~n:ops hists in
        reference_rate rates slowdowns
      in
      Gc.full_major ();
      w.mark_window ();
      let d0 = w.delivered () + w.pending () in
      let tr = Tracer.create ~label:s.name ~export_ops:(max 1 (2000 / s.per_op)) ~per_op:s.per_op in
      let q0 = Gc.quick_stat () in
      let t0 = now_ns () in
      let rates, slowdowns, _ =
        window w ~step:(w.traced_step tr) ~between:(place s) ~first:(warm + ops) ~n:ops hists
      in
      let wall = seconds_of (now_ns () - t0) in
      let traced_rate = reference_rate rates slowdowns in
      let q1 = Gc.quick_stat () in
      let busy = Tracer.gc_busy_ns tr in
      let attempted = ops * s.per_op in
      check_counts w ~expected:attempted ~d0;
      let msgs = float_of_int attempted in
      let per_msg layer = Tracer.total_ns tr layer /. msgs in
      let pause_ms = Array.fold_left ( +. ) 0. busy /. 1e6 in
      let metrics =
        [
          m "framing.decode_ns" (Tracer.mean_ns tr Tracer.Framing) "ns";
          m "meta.key_ns" (Tracer.mean_ns tr Tracer.Meta_key) "ns";
          m "meta.key_alloc_bytes" (Tracer.mean_alloc tr Tracer.Meta_key) "B";
          m "meta.decode_us" (List.assoc "meta.decode_us" micro) "us";
          m "maxmatch.us" (List.assoc "maxmatch.us" micro) "us";
          m "codec.plan_lookup_ns" (Tracer.mean_ns tr Tracer.Plan_lookup) "ns";
          m "codec.decode_ns" (Tracer.mean_ns tr Tracer.Codec) "ns";
          m "codec.alloc_bytes" (Tracer.mean_alloc tr Tracer.Codec) "B";
          m "handler.ns" (Tracer.mean_ns tr Tracer.Handler) "ns";
          (* per shadow message, so zero where no chain runs *)
          m "ecode.run_ns"
            (Tracer.total_ns tr Tracer.Ecode /. float_of_int (max 1 (Tracer.calls tr Tracer.Handler)))
            "ns";
          m "entry.ns" (per_msg Tracer.Entry) "ns";
          m "cache.hit_ratio" (w.hit_ratio ()) "ratio";
          m "ledger.coverage" (w.coverage tr) "ratio";
          m "gc.minor_per_kmsg"
            (float_of_int (q1.Gc.minor_collections - q0.Gc.minor_collections) /. msgs *. 1e3)
            "count";
          m "gc.major_per_kmsg"
            (float_of_int (q1.Gc.major_collections - q0.Gc.major_collections) /. msgs *. 1e3)
            "count";
          m "gc.promoted_bytes_per_msg"
            ((q1.Gc.promoted_words -. q0.Gc.promoted_words) *. Tracer.word_bytes /. msgs)
            "B";
          m "gc.pause_ms_per_s" (pause_ms /. wall) "ms/s";
          m "trace.overhead_ratio" (Workload.ratio traced_rate untraced) "ratio";
        ]
      in
      let failed = w.failures () and digest = w.digest () in
      let per_domain =
        List.filter_map
          (fun d ->
             if busy.(d) > 0. then
               Some (Printf.sprintf "gc.pause_ms_per_s.d%d" d, busy.(d) /. 1e6 /. wall)
             else None)
          (List.init Tracer.max_domains Fun.id)
      in
      let extras =
        w.extras tr @ micro @ per_domain
        @ [ ("trace.untraced_msgs_per_s", untraced);
            ("trace.traced_msgs_per_s", traced_rate);
            ("trace.ops", float_of_int ops);
            ("gc.runtime_events_lost", float_of_int (Tracer.gc_lost tr)) ]
      in
      mkdir_p dir;
      write_file (Filename.concat dir (s.name ^ ".trace.json")) (Tracer.chrome_json tr);
      write_file
        (Filename.concat dir (s.name ^ ".layers.json"))
        (layers_json tr ~header:
           (Printf.sprintf {|"workload": "%s", "seed": %d, "seconds": %s, "ops": %d, %s, "digest": "%s"|}
              s.name seed (json_float seconds) ops (machine ()) digest)
           ~metrics ~extras);
      w.close ();
      { workload = s.name; metrics; correct = true; attempted; failed; digest;
        slowdown = median slowdowns; error = None })
