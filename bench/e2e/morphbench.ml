(* morphbench: the end-to-end morphing benchmark.  See README.md.

     morphbench [--seed N] [--seconds S] [--trace DIR] [--out FILE]
         all six workloads, each in a fresh process; one result JSON
     morphbench --workload W [--seed N] [--seconds S] [--trace 0|1|DIR]
         one workload in this process; the last line of output is JSON
     morphbench compare [--benchmark FILE] A.json... -- B.json...
     morphbench smoke [--benchmark FILE]
         every workload at 1% of its ops, the checker self-test, and the
         lint of printed metrics against BENCHMARK.json *)

let default_trace_dir = "morphbench-trace"
let default_out = "morphbench-result.json"
let default_benchmark = "BENCHMARK.json"

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_dir : string;
  out : string;
  benchmark : string;
  corrupt : bool;
  rest : string list;  (** positional arguments *)
}

let usage_error msg =
  prerr_endline ("morphbench: " ^ msg);
  prerr_endline
    "usage: morphbench [--workload W] [--seed N] [--seconds S] [--trace 0|1|DIR] [--out FILE]";
  prerr_endline "       morphbench compare [--benchmark FILE] A.json... -- B.json...";
  prerr_endline "       morphbench smoke [--benchmark FILE]";
  exit 2

let parse args =
  let num conv what v =
    match conv v with Some x -> x | None -> usage_error (Printf.sprintf "bad %s %S" what v)
  in
  let rec go o = function
    | "--workload" :: v :: r -> go { o with workload = Some v } r
    | "--seed" :: v :: r -> go { o with seed = num int_of_string_opt "seed" v } r
    | "--seconds" :: v :: r ->
      let s = num float_of_string_opt "seconds" v in
      if not (s > 0.) then usage_error "seconds must be > 0";
      go { o with seconds = s } r
    | "--trace" :: "0" :: r -> go { o with trace = false } r
    | "--trace" :: "1" :: r -> go { o with trace = true } r
    | "--trace" :: dir :: r -> go { o with trace = true; trace_dir = dir } r
    | "--out" :: v :: r -> go { o with out = v } r
    | "--benchmark" :: v :: r -> go { o with benchmark = v } r
    | "--corrupt-reference" :: r -> go { o with corrupt = true } r
    | x :: _ when String.length x > 2 && String.sub x 0 2 = "--" && x <> "--" ->
      usage_error ("unknown or incomplete option " ^ x)
    | x :: r -> go { o with rest = o.rest @ [ x ] } r
    | [] -> o
  in
  go
    { workload = None; seed = 42; seconds = Run.reference_seconds; trace = false;
      trace_dir = default_trace_dir; out = default_out; benchmark = default_benchmark;
      corrupt = false; rest = [] }
    args

let json_float = Run.json_float

(* --- one workload in this process -------------------------------------- *)

let child (o : opts) name =
  let spec =
    match Workload.find name with
    | Some s -> s
    | None -> usage_error ("unknown workload " ^ name)
  in
  Workload.corrupt_reference := o.corrupt;
  let r =
    if o.trace then Run.traced spec ~seed:o.seed ~seconds:o.seconds ~dir:o.trace_dir
    else Run.plain spec ~seed:o.seed ~seconds:o.seconds
  in
  List.iter
    (fun (x : Run.metric) -> Printf.printf "%s %s %s %s\n" name x.Run.name (json_float x.Run.value) x.Run.unit_)
    r.Run.metrics;
  if name = "fanout-2dom" && not o.trace then
    Printf.printf "%s note alloc_bytes_per_msg counts the calling domain only\n" name;
  Printf.printf "%s digest %s\n" name r.Run.digest;
  Printf.printf "%s slowdown %s\n" name (json_float r.Run.slowdown);
  (match r.Run.error with
   | Some e -> Printf.printf "%s error %s\n" name e
   | None -> ());
  Printf.printf "%s check attempted=%d failed=%d correct=%b\n" name r.Run.attempted r.Run.failed
    r.Run.correct;
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} r.Run.correct
    (max 1 r.Run.attempted) r.Run.failed
    (String.concat ", "
       (List.map
          (fun (x : Run.metric) ->
             Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} x.Run.name (json_float x.Run.value)
               x.Run.unit_)
          r.Run.metrics));
  print_newline ();
  if r.Run.correct && r.Run.failed = 0 then 0 else 1

(* --- child processes ------------------------------------------------------ *)

type child_run = {
  c_lines : string list;
  c_exit : int;
  c_wall : float;
}

let spawn args =
  let exe = Sys.executable_name in
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let c_lines = read [] in
  let c_exit =
    match Unix.close_process_in ic with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 128
  in
  { c_lines; c_exit; c_wall = Unix.gettimeofday () -. t0 }

let child_args (o : opts) ~workload ~trace =
  [ "--workload"; workload; "--seed"; string_of_int o.seed; "--seconds"; json_float o.seconds;
    "--trace"; (if trace then o.trace_dir else "0") ]
  @ if o.corrupt then [ "--corrupt-reference" ] else []

(* "workload metric value unit" lines of one child *)
let metric_lines workload lines =
  List.filter_map
    (fun l ->
       match String.split_on_char ' ' l with
       | [ w; metric; v; unit_ ] when w = workload ->
         Option.map (fun v -> (metric, v, unit_)) (float_of_string_opt v)
       | _ -> None)
    lines

let field workload key lines =
  List.find_map
    (fun l ->
       match String.split_on_char ' ' l with
       | w :: k :: rest when w = workload && k = key -> Some (String.concat " " rest)
       | _ -> None)
    lines

let check_field workload key lines =
  Option.bind (field workload "check" lines) (fun rest ->
      List.find_map
        (fun kv ->
           match String.split_on_char '=' kv with
           | [ k; v ] when k = key -> Some v
           | _ -> None)
        (String.split_on_char ' ' rest))

(* --- all six workloads ------------------------------------------------------- *)

let full (o : opts) =
  let runs =
    List.concat_map
      (fun (s : Workload.spec) ->
         let one trace =
           let c = spawn (child_args o ~workload:s.Workload.name ~trace) in
           List.iter print_endline c.c_lines;
           flush stdout;
           (s, c)
         in
         one false :: (if o.trace then [ one true ] else []))
      Workload.specs
  in
  let plain = List.filteri (fun i _ -> (not o.trace) || i mod 2 = 0) runs in
  let buf = Buffer.create 8192 in
  let add fmt = Printf.bprintf buf fmt in
  add "{\"morphbench\": 1,\n";
  add "\"descriptor\": {\"seed\": %d, \"seconds\": %s, \"trace\": %b, %s, \"ops\": {%s}},\n"
    o.seed (json_float o.seconds) o.trace (Run.machine ())
    (String.concat ", "
       (List.map
          (fun (s : Workload.spec) ->
             Printf.sprintf "\"%s\": %d" s.Workload.name (Run.ops_for s ~seconds:o.seconds))
          Workload.specs));
  add "\"workloads\": [\n";
  add "%s\n],\n"
    (String.concat ",\n"
       (List.map
          (fun ((s : Workload.spec), c) ->
             let w = s.Workload.name in
             let get k = Option.value ~default:"0" (check_field w k c.c_lines) in
             Printf.sprintf
               "{\"workload\": \"%s\", \"exit\": %d, \"wall_s\": %s, \"correct\": %s, \"attempted\": %s, \"failed\": %s, \"slowdown\": %s, \"digest\": \"%s\"%s}"
               w c.c_exit (json_float c.c_wall) (get "correct") (get "attempted") (get "failed")
               (Option.value ~default:"0" (field w "slowdown" c.c_lines))
               (Option.value ~default:"" (field w "digest" c.c_lines))
               (match field w "note" c.c_lines with
                | Some n -> Printf.sprintf ", \"note\": \"%s\"" n
                | None -> ""))
          plain));
  add "\"metrics\": [\n%s\n]}\n"
    (String.concat ",\n"
       (List.concat_map
          (fun ((s : Workload.spec), c) ->
             List.map
               (fun (metric, v, unit_) ->
                  Printf.sprintf "{\"workload\": \"%s\", \"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\"}"
                    s.Workload.name metric (json_float v) unit_)
               (metric_lines s.Workload.name c.c_lines))
          runs));
  Run.write_file o.out (Buffer.contents buf);
  Printf.printf "wrote %s\n" o.out;
  if List.for_all (fun (_, c) -> c.c_exit = 0) runs then 0 else 1

(* --- smoke: short runs, lint, self-tests ------------------------------------ *)

(* The timed loop must not allocate: run it over a step that does nothing. *)
let harness_alloc_words () =
  let w =
    {
      Workload.before = ignore;
      step = ignore;
      traced_step = (fun _ _ -> ());
      delivered = (fun () -> 0);
      mark_window = ignore;
      pending = (fun () -> 0);
      drain = ignore;
      failures = (fun () -> 0);
      digest = (fun () -> "");
      hit_ratio = (fun () -> 0.);
      coverage = (fun _ -> 0.);
      extras = (fun _ -> []);
      prepare_trace = (fun () -> []);
      close = ignore;
    }
  in
  let _, _, bytes =
    Run.window w ~step:w.Workload.step ~between:ignore ~first:0 ~n:1_000_000 (Run.new_hists ())
  in
  bytes /. Tracer.word_bytes

let smoke (o : opts) =
  let bench = Schema.read_benchmark o.benchmark in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let names = List.map (fun (s : Workload.spec) -> s.Workload.name) Workload.specs in
  if bench.Schema.workloads <> names then
    err "BENCHMARK.json workloads [%s] differ from the benchmark's [%s]"
      (String.concat ", " bench.Schema.workloads) (String.concat ", " names);
  List.iter
    (fun (d : Schema.declared) ->
       if d.Schema.d_unit = "" then err "%s: no unit" d.Schema.d_name;
       if d.Schema.d_better <> "higher" && d.Schema.d_better <> "lower" then
         err "%s: better must be higher or lower" d.Schema.d_name)
    (bench.Schema.end_to_end @ bench.Schema.per_layer);
  List.iter
    (fun (d : Schema.declared) ->
       match d.Schema.d_bound with
       | Some b when b > 0. && b <= 0.25 -> ()
       | _ -> err "%s: bound missing or outside (0, 0.25]" d.Schema.d_name)
    bench.Schema.end_to_end;
  let o = { o with seconds = 0.1; seed = 42; trace_dir = "smoke-trace" } in
  let lint ~what declared (s : Workload.spec) (c : child_run) =
    let w = s.Workload.name in
    if c.c_exit <> 0 then err "%s (%s): exit %d\n%s" w what c.c_exit (String.concat "\n" c.c_lines)
    else begin
      let printed = metric_lines w c.c_lines in
      List.iter
        (fun (metric, _, unit_) ->
           match List.find_opt (fun (d : Schema.declared) -> d.Schema.d_name = metric) declared with
           | None -> err "%s (%s): printed %s is not declared in BENCHMARK.json" w what metric
           | Some d when d.Schema.d_unit <> unit_ ->
             err "%s (%s): %s printed in %s, declared in %s" w what metric unit_ d.Schema.d_unit
           | Some _ -> ())
        printed;
      List.iter
        (fun (d : Schema.declared) ->
           if not (List.exists (fun (m, _, _) -> m = d.Schema.d_name) printed) then
             err "%s (%s): declared %s is not printed" w what d.Schema.d_name)
        declared
    end
  in
  List.iter
    (fun (s : Workload.spec) ->
       let w = s.Workload.name in
       lint ~what:"plain" bench.Schema.end_to_end s (spawn (child_args o ~workload:w ~trace:false));
       lint ~what:"traced" bench.Schema.per_layer s (spawn (child_args o ~workload:w ~trace:true));
       List.iter
         (fun ext ->
            let f = Filename.concat o.trace_dir (w ^ ext) in
            if not (Sys.file_exists f) || (Unix.stat f).Unix.st_size = 0 then err "%s: no %s" w f)
         [ ".trace.json"; ".layers.json" ])
    Workload.specs;
  (* the checker must fail on a corrupted reference value *)
  List.iter
    (fun w ->
       let c = spawn (child_args { o with corrupt = true } ~workload:w ~trace:false) in
       let last = match List.rev c.c_lines with l :: _ -> l | [] -> "" in
       if c.c_exit = 0 || not (Schema.contains last "\"correct\": false") then
         err "%s: a corrupted reference value was not caught" w)
    [ "lineage-small"; "channel-keep" ];
  let words = harness_alloc_words () in
  if words > 1000. then err "the timed loop allocated %.0f words over 1M empty steps" words;
  match !errors with
  | [] ->
    print_endline "smoke: ok";
    0
  | es ->
    List.iter prerr_endline (List.rev es);
    1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | "compare" :: rest ->
      let o = parse rest in
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | x :: r -> split (x :: acc) r
        | [] -> usage_error "compare needs A.json... -- B.json..."
      in
      let a, b = split [] o.rest in
      if a = [] || b = [] then usage_error "compare needs at least one result file per side";
      Compare.run ~benchmark:o.benchmark ~a ~b
    | "smoke" :: rest -> smoke (parse rest)
    | _ ->
      let o = parse args in
      if o.rest <> [] then usage_error ("unexpected argument " ^ List.hd o.rest);
      (match o.workload with Some w -> child o w | None -> full o)
  in
  exit code
