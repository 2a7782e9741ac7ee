(* Shared fixtures and QCheck generators for the test suites. *)

open Pbio

(* --- fixture formats (the paper's Section 4.1 messages) ------------------- *)

let contact = Echo.Wire_formats.contact_info
let member_v1 = Echo.Wire_formats.member_v1
let member_v2 = Echo.Wire_formats.member_v2
let response_v1 = Echo.Wire_formats.channel_open_response_v1
let response_v2 = Echo.Wire_formats.channel_open_response_v2
let fig5_code = Echo.Wire_formats.response_v2_to_v1_code
let response_v2_meta = Echo.Wire_formats.response_v2_meta

let sample_v2 n = Echo.Wire_formats.gen_response_v2 n

(* A plain meta, [R { int x; }] under a record name padded so that its
   encoding takes exactly [n] bytes (at least 24): the size cap's
   fixture. *)
let meta_of_size n =
  let meta name =
    Meta.plain
      { Ptype.rname = name;
        fields = [ { Ptype.fname = "x"; ftype = Ptype.Basic Ptype.Int; fdefault = None } ] }
  in
  meta (String.make (n - String.length (Meta.encode (meta ""))) 'R')

(* A chain whose map [Codec.check_map] refuses: a loop that fills a list
   of records while it copies an array of ints (an element map over no
   records), then a hop of moves.  The source shares no field name with
   the target, so only the chain reaches it. *)
let refused_src = Ptype_dsl.format_of_string_exn "format T { int n; int a[n]; }"

let refused_target = Ptype_dsl.format_of_string_exn "format T { int m; int b[m]; }"

let refused_meta =
  let mid =
    Ptype_dsl.format_of_string_exn
      "record R { int f; } format T { int m; int b[m]; int k; R c[k]; }"
  in
  Morph.meta refused_src
    ~xforms:
      [ Morph.xform ~target:mid
          "int i;\nold.m = new.n;\n\
           for (i = 0; i < new.n; i++) { old.b[i] = new.a[i]; old.c[i].f = 3; }";
        Morph.xform ~source:mid ~target:refused_target "old.m = new.m; old.b = new.b;" ]

let refused_value =
  Value.record
    [ ("n", Value.Int 3); ("a", Value.array_of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ]) ]

(* --- Alcotest testables ----------------------------------------------------- *)

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let record_t : Ptype.record Alcotest.testable =
  Alcotest.testable Ptype.pp_record Ptype.equal_record

let xml : Xmlkit.Xml.t Alcotest.testable =
  Alcotest.testable
    (fun ppf t -> Fmt.string ppf (Xmlkit.Xml_print.to_string t))
    Xmlkit.Xml.equal

let check_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* Like [check_ok] for the canonical [(_, Pbio.Err.t) result] APIs. *)
let check_ok_err = function
  | Ok v -> v
  | Error (e : Err.t) -> Alcotest.failf "unexpected error: %s" (Err.to_string e)

let check_valid = function
  | Ok () -> ()
  | Error (e : Ptype.error) ->
    Alcotest.failf "unexpected validation error: %s: %s" e.Ptype.where e.Ptype.what

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Bytes allocated so far, as [Gc.allocated_bytes] but with the minor heap
   read from [Gc.minor_words]: on OCaml 5.1, [Gc.counters] reads the words
   allocated since the last minor collection 8 times too low, so a short
   loop that triggers no collection looked almost allocation-free. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Bytes allocated per call of [f] (after one warm-up call), from
   [allocated_bytes] deltas: a count, not a clock reading, so budgets on it
   hold on any machine. *)
let alloc_per_call ?(reps = 10) (f : unit -> unit) : float =
  f ();
  let a0 = allocated_bytes () in
  for _ = 1 to reps do
    f ()
  done;
  (allocated_bytes () -. a0) /. float_of_int reps

(* Words promoted to the major heap per call of [f], over [reps] calls
   made after [warm] warm-up calls and a full major collection; a closing
   minor collection counts what [f] leaves live in the minor heap. *)
let promoted_words_per_call ~warm ~reps (f : unit -> unit) : float =
  for _ = 1 to warm do
    f ()
  done;
  Gc.full_major ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  for _ = 1 to reps do
    f ()
  done;
  Gc.minor ();
  ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int reps

(* substring test for smoke-checking printed output *)
let contains (hay : string) (needle : string) : bool =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- random format + value generation (for property tests) ------------------ *)

(* The generators live in Morphcheck.Gen (shared with the morphcheck CLI
   campaigns and the benchmarks); [Morphcheck.Rgen.t] is the same type as
   [QCheck.Gen.t], so they plug into QCheck arbitraries unchanged. *)

let gen_basic : Ptype.basic QCheck.Gen.t = Morphcheck.Gen.basic
let gen_record_sized = Morphcheck.Gen.record_sized
let gen_record : Ptype.record QCheck.Gen.t = Morphcheck.Gen.record
let gen_value_for (r : Ptype.record) : Value.t QCheck.Gen.t = Morphcheck.Gen.value_for r

let gen_format_and_value : (Ptype.record * Value.t) QCheck.Gen.t =
  Morphcheck.Gen.format_and_value

let arb_format_and_value : (Ptype.record * Value.t) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (r, v) -> Ptype.record_to_string r ^ "\n" ^ Value.to_string v)
    gen_format_and_value

let arb_format : Ptype.record QCheck.arbitrary =
  QCheck.make ~print:Ptype.record_to_string gen_record

(* --- deterministic QCheck runs ----------------------------------------------- *)

(* Properties run under a fixed seed so CI is reproducible; export
   QCHECK_SEED to rerun a failure (QCheck itself also honours that
   variable, taking precedence over the state passed here). *)

let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string (String.trim s) with _ -> 42)
  | None -> 42

(* Convert a qcheck test into an alcotest case, pinning the seed and naming
   it on failure. *)
let qtest t =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.eprintf "[qcheck] %S failed; reproduce with QCHECK_SEED=%d\n%!"
          name qcheck_seed;
        raise e )
