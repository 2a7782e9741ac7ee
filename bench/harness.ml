(* Measurement harness for the evaluation benchmarks.

   Fast operations are measured with Bechamel (OLS fit of time against run
   count); operations whose single run exceeds ~10 ms are measured by direct
   repetition with the monotonic clock (Bechamel's geometric run growth
   would make multi-second XSLT runs at the 1 MB point take minutes). *)

open Bechamel

let ns_now () = Int64.to_float (Monotonic_clock.now ())

(* One timed execution, in nanoseconds. *)
let time_once (f : unit -> unit) : float =
  let t0 = ns_now () in
  f ();
  ns_now () -. t0

let measure_manual ?(budget_ns = 1.2e9) (f : unit -> unit) (first : float) : float =
  let reps = max 2 (int_of_float (budget_ns /. Float.max first 1.0)) in
  let reps = min reps 50 in
  let best = ref first in
  for _ = 1 to reps - 1 do
    let t = time_once f in
    if t < !best then best := t
  done;
  !best

let measure_bechamel ?(quota_s = 0.4) ~name (f : unit -> unit) : float =
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second quota_s) ~kde:None ~stabilize:false ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raws = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raws in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | [ r ] ->
    (match Analyze.OLS.estimates r with
     | Some [ est ] -> est
     | Some _ | None -> Float.nan)
  | _ -> Float.nan

(* Every completed measurement, in run order, for the JSON trajectory. *)
let recorded : (string * float) list ref = ref []

(* Allocation profiles recorded alongside: (name, bytes/op, minor
   collections/op). *)
let recorded_alloc : (string * float * float) list ref = ref []

(* Nanoseconds per execution of [f].  Fast operations take the best of two
   Bechamel OLS fits (scheduler blips on a shared container otherwise leak
   into single estimates); slow ones repeat directly. *)
let measure ~(name : string) (f : unit -> unit) : float =
  (* each point starts from a compacted heap: megabyte-scale points would
     otherwise hand ever-larger, fragmented heaps to whichever variant
     happens to run later in the suite *)
  Gc.compact ();
  f (); (* warm up: fill caches, trigger compilation paths *)
  let first = time_once f in
  let ns =
    (* past ~1 ms a single run amortises GC well enough that best-of direct
       repetition is both faster and far less noisy than an OLS fit whose
       samples straddle major collections *)
    if first < 1e6 then
      Float.min (measure_bechamel ~name f) (measure_bechamel ~name f)
    else measure_manual f first
  in
  recorded := (name, ns) :: !recorded;
  ns

(* Bytes allocated so far: minor words plus direct major allocations, the
   formula of the test suite's [Helpers.allocated_bytes].  Not
   [Gc.allocated_bytes]: on OCaml 5.1 it reads the words allocated since
   the last minor collection 8 times too low, so a run that stays inside
   one minor heap looked almost allocation-free. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Bytes allocated and minor collections per execution of [f], by
   [allocated_bytes] / [Gc.quick_stat] deltas over a fixed run count.
   Unlike time, allocation is deterministic per run, so a modest rep
   count with the two probe calls amortised over it is exact enough for
   a ratio gate. *)
let alloc_of ?(reps = 64) (f : unit -> unit) : float * float =
  f ();
  (* warm up *)
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let a0 = allocated_bytes () in
  for _ = 1 to reps do
    f ()
  done;
  let a1 = allocated_bytes () in
  let s1 = Gc.quick_stat () in
  ( (a1 -. a0) /. float_of_int reps,
    float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections)
    /. float_of_int reps )

(* Bytes promoted to the major heap per execution of [f]: what the minor
   collector copies out because something long-lived still points at it.
   The run starts after a full major collection and ends with a minor
   one, so a block [f] leaves live in the minor heap counts too.  Like
   allocation, the count is deterministic per run. *)
let promoted_of ?(reps = 20_000) (f : unit -> unit) : float =
  Gc.full_major ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  for _ = 1 to reps do
    f ()
  done;
  Gc.minor ();
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  (p1 -. p0) *. float_of_int (Sys.word_size / 8) /. float_of_int reps

(* ns/op plus the allocation profile: (ns, allocated bytes/op, minor
   collections/op).  Records all three for the JSON trajectory. *)
let measure_alloc ~(name : string) (f : unit -> unit) : float * float * float =
  let ns = measure ~name f in
  let bytes, minors = alloc_of f in
  recorded_alloc := (name, bytes, minors) :: !recorded_alloc;
  (ns, bytes, minors)

(* Write every recorded measurement to [path] through the Obs JSON sink:
   one gauge per benchmark point (value in nanoseconds per execution),
   plus [.alloc_bytes] / [.minor_collections] gauges for points measured
   with an allocation profile. *)
let write_json (path : string) : unit =
  let reg = Obs.create () in
  List.iter
    (fun (name, ns) ->
       if not (Float.is_nan ns) then
         Obs.Gauge.set (Obs.Gauge.make reg ~unit_:"ns" ("bench." ^ name)) ns)
    (List.rev !recorded);
  List.iter
    (fun (name, bytes, minors) ->
       Obs.Gauge.set
         (Obs.Gauge.make reg ~unit_:"bytes" ("bench." ^ name ^ ".alloc_bytes"))
         bytes;
       Obs.Gauge.set
         (Obs.Gauge.make reg ~unit_:"collections"
            ("bench." ^ name ^ ".minor_collections"))
         minors)
    (List.rev !recorded_alloc);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Obs.emit reg (Obs.Json (output_string oc)))

(* --- output helpers --------------------------------------------------------- *)

let pp_ns ppf (ns : float) =
  if Float.is_nan ns then Fmt.string ppf "n/a"
  else if ns < 1e3 then Fmt.pf ppf "%.0f ns" ns
  else if ns < 1e6 then Fmt.pf ppf "%.2f us" (ns /. 1e3)
  else if ns < 1e9 then Fmt.pf ppf "%.2f ms" (ns /. 1e6)
  else Fmt.pf ppf "%.2f s" (ns /. 1e9)

let ns_to_ms ns = ns /. 1e6

let pp_bytes ppf (n : int) =
  if n < 1024 then Fmt.pf ppf "%dB" n
  else if n < 1024 * 1024 then Fmt.pf ppf "%dKB" (n / 1024)
  else Fmt.pf ppf "%dMB" (n / (1024 * 1024))

let section title detail =
  Printf.printf "\n== %s ==\n   %s\n" title detail

let row fmt = Printf.printf fmt
