(* morphctl: a command-line companion for the message-morphing library.

     morphctl show FILE         pretty-print formats declared in a DSL file
     morphctl diff FILE         pairwise diff / Mismatch Ratio table
     morphctl maxmatch FILE     run MaxMatch between two declared format sets
     morphctl encode FILE       wire-encode a default-valued record, show hex
     morphctl sizes             Table-1-style size table for the ECho workload
     morphctl demo              run the ECho evolution scenario
     morphctl stats             run an instrumented scenario, dump all metrics
     morphctl trace             run a traced scenario, export Perfetto JSON
     morphctl loadgen           open-loop load harness over the virtual clock
     morphctl gateway           multi-tenant gateway load run or chaos soak

   Format files use the DSL of Pbio.Ptype_dsl, e.g.:

     record Member { string info; int id; bool is_source; bool is_sink; }
     format ChannelOpenResponse { int n; Member members[n]; }
*)

open Cmdliner
open Pbio

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Dump every captured flight incident as a Perfetto-loadable Chrome
   trace plus a text post-mortem report, one pair per incident. *)
let dump_flight ~dir fl =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (inc : Obs.Flight.incident) ->
       let base =
         Filename.concat dir (Printf.sprintf "incident-%03d" inc.Obs.Flight.seq)
       in
       write_file (base ^ ".json") (Obs.Flight.to_chrome_json inc);
       write_file (base ^ ".txt") (Obs.Flight.report inc))
    (Obs.Flight.incidents fl);
  Printf.printf "flight: %d incident(s) dumped to %s%s\n" (Obs.Flight.count fl)
    dir
    (if Obs.Flight.suppressed fl > 0 then
       Printf.sprintf " (%d suppressed)" (Obs.Flight.suppressed fl)
     else "")

let load_formats path : (string * Ptype.record) list =
  match Ptype_dsl.parse_formats (read_file path) with
  | Ok [] -> Fmt.failwith "%s: no 'format' declarations found" path
  | Ok fs -> fs
  | Error msg -> Fmt.failwith "%s: %s" path msg

(* --- show ------------------------------------------------------------------ *)

let show_cmd =
  let run path =
    List.iter
      (fun (_, r) ->
         Format.printf "%a@." Ptype.pp_record r;
         Format.printf "  weight W_f = %d@.@." (Ptype.weight r))
      (load_formats path)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "show" ~doc:"Pretty-print the formats declared in FILE")
    Term.(const run $ path)

(* --- diff ------------------------------------------------------------------ *)

let diff_cmd =
  let run path =
    let fs = load_formats path in
    Format.printf "%-24s %-24s %6s %6s %8s@." "f1" "f2" "diff" "diff'" "Mr";
    List.iteri
      (fun i (n1, f1) ->
         List.iteri
           (fun j (n2, f2) ->
              if i <> j then begin
                let m = Morph.Maxmatch.evaluate_pair f1 f2 in
                Format.printf "%-24s %-24s %6d %6d %8.3f%s@." n1 n2
                  m.Morph.Maxmatch.diff12 m.diff21 m.ratio
                  (if Morph.Maxmatch.is_perfect m then "  perfect" else "")
              end)
           fs)
      fs
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Pairwise diff (Algorithm 1) and Mismatch Ratio between all formats in FILE")
    Term.(const run $ path)

(* --- maxmatch --------------------------------------------------------------- *)

let maxmatch_cmd =
  let run path dt mt =
    let fs = load_formats path in
    let thresholds = { Morph.Maxmatch.diff_threshold = dt; mismatch_threshold = mt } in
    let records = List.map snd fs in
    Format.printf "thresholds: diff <= %d, Mr <= %.3f@." dt mt;
    (match Morph.Maxmatch.max_match ~thresholds records records with
     | Some m -> Format.printf "MaxMatch: %a@." Morph.Maxmatch.pp_match m
     | None -> Format.printf "MaxMatch: no qualifying pair@.");
    Format.printf "ranked qualifying pairs:@.";
    List.iter
      (fun m ->
         if not (Ptype.equal_record m.Morph.Maxmatch.f1 m.Morph.Maxmatch.f2) then
           Format.printf "  %a@." Morph.Maxmatch.pp_match m)
      (Morph.Maxmatch.ranked ~thresholds records records)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let dt =
    Arg.(value & opt int Morph.Maxmatch.default_thresholds.diff_threshold
         & info [ "diff-threshold"; "d" ] ~docv:"N" ~doc:"DIFF_THRESHOLD")
  in
  let mt =
    Arg.(value & opt float Morph.Maxmatch.default_thresholds.mismatch_threshold
         & info [ "mismatch-threshold"; "m" ] ~docv:"R" ~doc:"MISMATCH_THRESHOLD")
  in
  Cmd.v
    (Cmd.info "maxmatch" ~doc:"Run MaxMatch over the formats declared in FILE")
    Term.(const run $ path $ dt $ mt)

(* --- encode ------------------------------------------------------------------ *)

let hexdump (s : string) : unit =
  String.iteri
    (fun i c ->
       if i mod 16 = 0 then Printf.printf "%s%04x  " (if i > 0 then "\n" else "") i;
       Printf.printf "%02x " (Char.code c))
    s;
  print_newline ()

let encode_cmd =
  let run path name big =
    let fs = load_formats path in
    let _, r =
      match name with
      | Some n ->
        (match List.find_opt (fun (fn, _) -> fn = n) fs with
         | Some f -> f
         | None -> Fmt.failwith "no format named %S in %s" n path)
      | None -> List.hd fs
    in
    let v = Value.default_record r in
    let endian = if big then Wire.Big else Wire.Little in
    let bytes = Wire.encode ~endian ~format_id:1 r v in
    Format.printf "format %s, default value:@.  %a@." r.Ptype.rname Value.pp v;
    Printf.printf "unencoded size: %d bytes\n" (Sizeof.unencoded r v);
    Printf.printf "wire size:      %d bytes (%d header + %d payload)\n"
      (String.length bytes) Wire.header_size
      (String.length bytes - Wire.header_size);
    hexdump bytes;
    (* prove it round-trips *)
    (match Wire.decode r bytes with
     | Ok back -> assert (Value.equal v back)
     | Error e -> Fmt.failwith "round-trip decode failed: %a" Err.pp e);
    print_endline "round-trip: ok"
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let fmt_name =
    Arg.(value & opt (some string) None & info [ "format"; "f" ] ~docv:"NAME")
  in
  let big = Arg.(value & flag & info [ "big-endian"; "B" ] ~doc:"Encode big-endian") in
  Cmd.v
    (Cmd.info "encode"
       ~doc:"Wire-encode a default-valued record of a format in FILE and hex-dump it")
    Term.(const run $ path $ fmt_name $ big)

(* --- xform ------------------------------------------------------------------- *)

(* A deterministic, human-readable sample value: more interesting than
   all-zero defaults when demonstrating a transformation. *)
let sample_value (r : Ptype.record) : Value.t =
  let counter = ref 0 in
  let next () = incr counter; !counter in
  let rec of_type path (ty : Ptype.t) : Value.t =
    match ty with
    | Basic Int -> Value.Int (next ())
    | Basic Uint -> Value.Uint (next ())
    | Basic Float -> Value.Float (float_of_int (next ()) +. 0.5)
    | Basic Char -> Value.Char (Char.chr (Char.code 'a' + (next () mod 26)))
    | Basic Bool -> Value.Bool (next () mod 2 = 0)
    | Basic String -> Value.String (path ^ "-" ^ string_of_int (next ()))
    | Basic (Enum e) ->
      let case, n = List.nth e.cases (next () mod List.length e.cases) in
      Value.Enum (case, n)
    | Record r -> of_record path r
    | Array { elem; size = Fixed n } ->
      Value.array_of_list (List.init n (fun i -> of_type (path ^ string_of_int i) elem))
    | Array { elem; size = Length_field _ } ->
      Value.array_of_list (List.init 2 (fun i -> of_type (path ^ string_of_int i) elem))
  and of_record path (r : Ptype.record) : Value.t =
    let v =
      Value.record
        (List.map
           (fun (f : Ptype.field) ->
              (f.Ptype.fname, of_type (if path = "" then f.Ptype.fname else path ^ "." ^ f.Ptype.fname) f.Ptype.ftype))
           r.Ptype.fields)
    in
    Value.sync_lengths r v;
    v
  in
  of_record "" r

let xform_cmd =
  let run path from_name to_name code_path =
    let fs = load_formats path in
    let find n =
      match List.assoc_opt n fs with
      | Some r -> r
      | None -> Fmt.failwith "no format named %S in %s" n path
    in
    let src = find from_name and dst = find to_name in
    let code = read_file code_path in
    let input = sample_value src in
    Format.printf "input (%s):@.  %a@.@." from_name Value.pp input;
    let meta = Morph.meta src ~xforms:[ Morph.xform ~target:dst code ] in
    (match Morph.check_meta meta with
     | Ok () -> ()
     | Error e -> Fmt.failwith "transformation does not compile: %a" Err.pp e);
    match Morph.morph_to meta ~target:dst input with
    | Ok out -> Format.printf "morphed (%s):@.  %a@." to_name Value.pp out
    | Error e -> Fmt.failwith "morphing failed: %a" Err.pp e
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FORMATS") in
  let code = Arg.(required & pos 1 (some file) None & info [] ~docv:"ECODE_FILE") in
  let from_name =
    Arg.(required & opt (some string) None & info [ "from" ] ~docv:"NAME")
  in
  let to_name = Arg.(required & opt (some string) None & info [ "to" ] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "xform"
       ~doc:"Apply an Ecode transformation between two formats on a generated sample")
    Term.(const run $ path $ from_name $ to_name $ code)

(* --- explain ------------------------------------------------------------------ *)

let explain_cmd =
  let run path incoming registered code_path dt mt =
    let fs = load_formats path in
    let find n =
      match List.assoc_opt n fs with
      | Some r -> r
      | None -> Fmt.failwith "no format named %S in %s" n path
    in
    let incoming_fmt = find incoming in
    let xforms =
      match code_path, registered with
      | None, _ -> []
      | Some cp, first :: _ ->
        [ Morph.xform ~target:(find first) (read_file cp) ]
      | Some _, [] -> Fmt.failwith "--code requires at least one --registered format"
    in
    let meta = Morph.meta incoming_fmt ~xforms in
    (match Morph.check_meta meta with
     | Ok () -> ()
     | Error e -> Fmt.failwith "attached code does not compile: %a" Err.pp e);
    let receiver =
      Morph.Receiver.create
        ~config:
          (Morph.Receiver.Config.v
             ~thresholds:{ Morph.Maxmatch.diff_threshold = dt; mismatch_threshold = mt }
             ())
        ()
    in
    List.iter (fun n -> Morph.Receiver.register receiver (find n) (fun _ -> ())) registered;
    Printf.printf "incoming:   %s\n" incoming;
    Printf.printf "registered: %s\n" (String.concat ", " registered);
    Printf.printf "plan:       %s\n" (Morph.Receiver.explain receiver meta)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FORMATS") in
  let incoming =
    Arg.(required & opt (some string) None & info [ "incoming"; "i" ] ~docv:"NAME")
  in
  let registered =
    Arg.(value & opt_all string [] & info [ "registered"; "r" ] ~docv:"NAME")
  in
  let code =
    Arg.(value & opt (some file) None
         & info [ "code"; "c" ] ~docv:"ECODE_FILE"
             ~doc:"Attach this transformation (target = first --registered format)")
  in
  let dt =
    Arg.(value & opt int Morph.Maxmatch.default_thresholds.diff_threshold
         & info [ "diff-threshold"; "d" ] ~docv:"N")
  in
  let mt =
    Arg.(value & opt float Morph.Maxmatch.default_thresholds.mismatch_threshold
         & info [ "mismatch-threshold"; "m" ] ~docv:"R")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Describe what Algorithm 2 would do with a format, without delivering")
    Term.(const run $ path $ incoming $ registered $ code $ dt $ mt)

(* --- sizes ------------------------------------------------------------------- *)

let sizes_cmd =
  let run members =
    let open Echo.Wire_formats in
    let v2 = gen_response_v2 members in
    let v1 =
      match Morph.morph_to response_v2_meta ~target:channel_open_response_v1 v2 with
      | Ok v -> v
      | Error e -> Fmt.failwith "%a" Err.pp e
    in
    let xml2 = Xmlkit.Pbio_xml.encode channel_open_response_v2 v2 in
    let xml1 = Xmlkit.Pbio_xml.encode channel_open_response_v1 v1 in
    Printf.printf "ChannelOpenResponse with %d members:\n" members;
    Printf.printf "  %-22s %10s\n" "representation" "bytes";
    List.iter
      (fun (label, n) -> Printf.printf "  %-22s %10d\n" label n)
      [
        ("unencoded v2.0", Sizeof.unencoded channel_open_response_v2 v2);
        ("PBIO encoded v2.0",
         String.length (Wire.encode ~format_id:1 channel_open_response_v2 v2));
        ("unencoded v1.0", Sizeof.unencoded channel_open_response_v1 v1);
        ("XML v2.0", String.length xml2);
        ("XML v1.0", String.length xml1);
      ]
  in
  let members =
    Arg.(value & opt int 100 & info [ "members"; "n" ] ~docv:"N" ~doc:"member-list length")
  in
  Cmd.v
    (Cmd.info "sizes" ~doc:"Table-1-style message sizes for the ECho workload")
    Term.(const run $ members)

(* --- demo --------------------------------------------------------------------- *)

let demo_cmd =
  let run () =
    let net = Transport.Netsim.create () in
    let creator = Echo.Node.create net ~host:"creator" ~port:1 Echo.Node.V2 in
    let old_sink = Echo.Node.create net ~host:"legacy" ~port:2 Echo.Node.V1 in
    Echo.Node.create_channel creator "demo" ~as_source:true ~as_sink:false;
    let got = ref 0 in
    Echo.Node.subscribe_events old_sink "demo" (fun _ -> incr got);
    Echo.Node.join old_sink ~creator:(Echo.Node.contact creator) "demo"
      ~as_source:false ~as_sink:true;
    ignore (Echo.settle net);
    Echo.Node.publish creator "demo" "hello";
    ignore (Echo.settle net);
    Printf.printf
      "ECho-2.0 creator, ECho-1.0 subscriber: %d event(s) delivered across versions\n" !got;
    if !got = 1 then print_endline "demo: ok" else exit 1
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run a two-node cross-version ECho demo")
    Term.(const run $ const ())

(* --- stats --------------------------------------------------------------- *)

let stats_cmd =
  let run scenario json prometheus watch orders =
    let metrics = Obs.create () in
    let emit_now () =
      if prometheus then print_string (Obs.to_prometheus metrics)
      else
        Obs.emit metrics
          (if json then Obs.Json print_string else Obs.Text print_string)
    in
    (* every wire, codec, convert and Ecode series is recorded into the
       command's context *)
    let ctx = Ctx.create ~metrics () in
    (match scenario with
     | "b2b" ->
       if watch > 0 then
         Printf.eprintf
           "stats: --watch snapshots the echo event loop; ignored for b2b\n";
       let r = B2b.Scenario.run ~orders ~metrics ~ctx B2b.Broker.Morph_at_receiver in
       if not json then Format.printf "# %a@.@." B2b.Scenario.pp_result r
     | "echo" ->
       (* cross-version publish/subscribe: a 2.0 creator, a 1.0 sink *)
       let net = Transport.Netsim.create ~metrics () in
       let creator =
         Echo.Node.create ~metrics ~ctx net ~host:"creator" ~port:1 Echo.Node.V2
       in
       let old_sink =
         Echo.Node.create ~metrics ~ctx net ~host:"legacy" ~port:2 Echo.Node.V1
       in
       Echo.Node.create_channel creator "demo" ~as_source:true ~as_sink:false;
       Echo.Node.subscribe_events old_sink "demo" (fun _ -> ());
       Echo.Node.join old_sink ~creator:(Echo.Node.contact creator) "demo"
         ~as_source:false ~as_sink:true;
       ignore (Echo.settle net);
       for i = 1 to orders do
         Echo.Node.publish creator "demo" (Printf.sprintf "event-%d" i);
         ignore (Echo.settle net);
         if watch > 0 && i mod watch = 0 && i < orders then begin
           Printf.printf "# watch %d/%d\n" i orders;
           emit_now ()
         end
       done
     | s ->
       Printf.eprintf "stats: unknown scenario %S (expected b2b or echo)\n" s;
       exit 2);
    emit_now ()
  in
  let scenario =
    Arg.(value & opt string "b2b"
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Instrumented scenario to run: b2b or echo")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit line-oriented JSON instead of a table")
  in
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Emit Prometheus text exposition instead of a table")
  in
  let watch =
    Arg.(value & opt int 0
         & info [ "watch" ] ~docv:"N"
             ~doc:"Also emit a live snapshot every N events (echo scenario)")
  in
  let orders =
    Arg.(value & opt int 25
         & info [ "orders"; "n" ] ~docv:"N"
             ~doc:"Orders (b2b) or events (echo) to push through the scenario")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run an instrumented scenario and dump every collected metric")
    Term.(const run $ scenario $ json $ prometheus $ watch $ orders)

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let run scenario json out orders reliable loss dup reorder seed =
    let faults =
      if loss = 0.0 && dup = 0.0 && reorder = 0.0 then None
      else
        Some
          { Transport.Netsim.loss; duplication = dup; reorder; jitter_s = 0.0 }
    in
    (* lost frames without retransmission mean lost orders, so a fault
       profile implies the reliable wrapping *)
    let reliable = reliable || faults <> None in
    let traces =
      match scenario with
      | "b2b" ->
        let t =
          B2b.Scenario.run_traced ~orders ~reliable ?faults ~seed
            B2b.Broker.Morph_at_receiver
        in
        Format.eprintf "# %a@." B2b.Scenario.pp_result t.B2b.Scenario.result;
        t.B2b.Scenario.traces
      | "echo" ->
        (* the cross-version publish/subscribe pair of the stats command,
           with a tracing registry per node, clocked to the simulator *)
        let net_reg = Obs.create ~label:"net" () in
        let c_reg = Obs.create ~label:"creator" () in
        let l_reg = Obs.create ~label:"legacy" () in
        let net = Transport.Netsim.create ~seed ~metrics:net_reg () in
        let clock () = Transport.Netsim.now net *. 1e9 in
        List.iter
          (fun r -> Obs.set_registry_clock r clock)
          [ net_reg; c_reg; l_reg ];
        (match faults with
         | Some f -> Transport.Netsim.set_faults net f
         | None -> ());
        let creator =
          Echo.Node.create ~reliable ~metrics:c_reg net ~host:"creator" ~port:1
            Echo.Node.V2
        in
        let old_sink =
          Echo.Node.create ~reliable ~metrics:l_reg net ~host:"legacy" ~port:2
            Echo.Node.V1
        in
        Echo.Node.create_channel creator "demo" ~as_source:true ~as_sink:false;
        Echo.Node.subscribe_events old_sink "demo" (fun _ -> ());
        Echo.Node.join old_sink ~creator:(Echo.Node.contact creator) "demo"
          ~as_source:false ~as_sink:true;
        ignore (Echo.settle net);
        for i = 1 to orders do
          Echo.Node.publish creator "demo" (Printf.sprintf "event-%d" i);
          ignore (Echo.settle net)
        done;
        Obs.Trace.assemble
          (List.concat_map Obs.Trace.spans [ c_reg; l_reg; net_reg ])
      | s ->
        Printf.eprintf "trace: unknown scenario %S (expected b2b or echo)\n" s;
        exit 2
    in
    let output =
      if json then Obs.Trace.to_chrome_json traces
      else Obs.Trace.to_waterfall traces
    in
    match out with
    | None -> print_string output
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc output);
      Printf.printf "trace: wrote %d trace(s) to %s\n" (List.length traces) path
  in
  let scenario =
    Arg.(value & opt string "b2b"
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Scenario to trace: b2b or echo")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit Chrome trace-event JSON (loadable in Perfetto) instead \
                   of a text waterfall")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the export to FILE")
  in
  let orders =
    Arg.(value & opt int 3
         & info [ "orders"; "n" ] ~docv:"N"
             ~doc:"Orders (b2b) or events (echo) to push through the scenario")
  in
  let reliable =
    Arg.(value & flag
         & info [ "reliable" ]
             ~doc:"Wrap frames in the ack/retransmit protocol (implied by any \
                   fault flag)")
  in
  let loss =
    Arg.(value & opt float 0.0
         & info [ "loss" ] ~docv:"P" ~doc:"Per-frame loss probability")
  in
  let dup =
    Arg.(value & opt float 0.0
         & info [ "dup" ] ~docv:"P" ~doc:"Per-frame duplication probability")
  in
  let reorder =
    Arg.(value & opt float 0.0
         & info [ "reorder" ] ~docv:"P" ~doc:"Per-frame reordering probability")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed"; "s" ] ~docv:"N" ~doc:"Fault-model seed")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a scenario with distributed tracing on and export the spans")
    Term.(const run $ scenario $ json $ out $ orders $ reliable $ loss $ dup
          $ reorder $ seed)

(* --- morphcheck --------------------------------------------------------------- *)

let morphcheck_cmd =
  let run seed count oracle =
    let module O = Morphcheck.Oracle in
    let names =
      match oracle with
      | "all" -> O.names
      | "fuzz" -> O.fuzz_names
      | name when List.mem name O.names -> [ name ]
      | name ->
        Printf.eprintf "morphcheck: unknown oracle %S (expected all, fuzz, or one of: %s)\n"
          name (String.concat ", " O.names);
        exit 2
    in
    if count < 0 then begin
      Printf.eprintf "morphcheck: --count must be non-negative\n";
      exit 2
    end;
    Printf.printf "morphcheck: seed=%d count=%d\n" seed count;
    let reports = O.run ~names ~seed ~count () in
    List.iter (fun r -> Format.printf "%a@." O.pp_report r) reports;
    let failed = List.filter (fun r -> not (O.passed r)) reports in
    if failed = [] then print_endline "morphcheck: ok"
    else begin
      Printf.printf "morphcheck: %d oracle(s) failed; reproduce with --seed %d\n"
        (List.length failed) seed;
      exit 1
    end
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"N" ~doc:"Campaign seed")
  in
  let count =
    Arg.(value & opt int 1000 & info [ "count"; "n" ] ~docv:"N" ~doc:"Cases per oracle")
  in
  let oracle =
    Arg.(value & opt string "all"
         & info [ "oracle"; "o" ] ~docv:"NAME"
             ~doc:"Oracle to run: all, fuzz, or a single oracle name")
  in
  Cmd.v
    (Cmd.info "morphcheck"
       ~doc:"Run the randomized differential oracles and mutation fuzzer")
    Term.(const run $ seed $ count $ oracle)

(* --- parallel ----------------------------------------------------------------- *)

let parallel_cmd =
  let run seed cases domains scenario =
    let module P = Morphcheck.Parallel_oracle in
    let names =
      match scenario with
      | "all" -> P.names
      | name when List.mem name P.names -> [ name ]
      | name ->
        Printf.eprintf "parallel: unknown scenario %S (expected all or one of: %s)\n"
          name (String.concat ", " P.names);
        exit 2
    in
    if cases < 0 then begin
      Printf.eprintf "parallel: --cases must be non-negative\n";
      exit 2
    end;
    if domains < 1 then begin
      Printf.eprintf "parallel: --domains must be >= 1\n";
      exit 2
    end;
    Printf.printf "parallel: seed=%d cases=%d domains=%d (recommended %d)\n" seed
      cases domains (Domain.recommended_domain_count ());
    let reports = P.run ~names ~seed ~count:cases ~domains () in
    let module O = Morphcheck.Oracle in
    List.iter (fun r -> Format.printf "%a@." O.pp_report r) reports;
    let failed = List.filter (fun r -> not (O.passed r)) reports in
    if failed = [] then print_endline "parallel: ok"
    else begin
      Printf.printf
        "parallel: %d scenario(s) diverged across domains; reproduce with --seed %d --domains %d\n"
        (List.length failed) seed domains;
      exit 1
    end
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"N" ~doc:"Campaign seed")
  in
  let cases =
    Arg.(value & opt int 50 & info [ "cases"; "n" ] ~docv:"N" ~doc:"Cases per scenario")
  in
  let domains =
    Arg.(value & opt int 4
         & info [ "domains"; "d" ] ~docv:"N"
             ~doc:"Pool width for the sharded run (1 never spawns)")
  in
  let scenario =
    Arg.(value & opt string "all"
         & info [ "scenario"; "o" ] ~docv:"NAME"
             ~doc:"Scenario to run: all or a single scenario name")
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:
         "Check that domain-sharded delivery reproduces the single-domain \
          outcomes, values and merged counters exactly")
    Term.(const run $ seed $ cases $ domains $ scenario)

(* --- chaos --------------------------------------------------------------- *)

let chaos_cmd =
  let run seed cases records loss dup reorder jitter no_partition =
    if cases < 1 || records < 1 then begin
      Printf.eprintf "chaos: --cases and --records must be positive\n";
      exit 2
    end;
    let module C = Morphcheck.Chaos in
    let profile =
      { C.loss; duplication = dup; reorder; jitter_s = jitter;
        partition = not no_partition }
    in
    Printf.printf "chaos: seed=%d cases=%d records=%d loss=%.3f dup=%.3f \
                   reorder=%.3f jitter=%gs partition=%b\n"
      seed cases records loss dup reorder jitter (not no_partition);
    let report = C.run ~profile ~seed ~cases ~records () in
    Format.printf "%a@." C.pp_report report;
    if not (C.passed report) then begin
      Printf.printf "chaos: reproduce with --seed %d\n" seed;
      exit 1
    end
  in
  let d = Morphcheck.Chaos.default_profile in
  let seed =
    Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"N" ~doc:"Campaign seed")
  in
  let cases =
    Arg.(value & opt int 20 & info [ "cases"; "n" ] ~docv:"N" ~doc:"Chaos cases to run")
  in
  let records =
    Arg.(value & opt int 25
         & info [ "records" ] ~docv:"N" ~doc:"Records published per case")
  in
  let loss =
    Arg.(value & opt float d.Morphcheck.Chaos.loss
         & info [ "loss" ] ~docv:"P" ~doc:"Per-frame loss probability")
  in
  let dup =
    Arg.(value & opt float d.Morphcheck.Chaos.duplication
         & info [ "dup" ] ~docv:"P" ~doc:"Per-frame duplication probability")
  in
  let reorder =
    Arg.(value & opt float d.Morphcheck.Chaos.reorder
         & info [ "reorder" ] ~docv:"P" ~doc:"Per-frame reordering probability")
  in
  let jitter =
    Arg.(value & opt float d.Morphcheck.Chaos.jitter_s
         & info [ "jitter" ] ~docv:"S" ~doc:"Max extra latency, simulated seconds")
  in
  let no_partition =
    Arg.(value & flag
         & info [ "no-partition" ] ~doc:"Skip the timed network partition")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Soak the ECho and B2B stacks under a lossy-network fault profile")
    Term.(const run $ seed $ cases $ records $ loss $ dup $ reorder $ jitter
          $ no_partition)

(* --- loadgen ------------------------------------------------------------- *)

let loadgen_cmd =
  let run scenario clients dist duration churn versions mix sinks loss dup
      reorder jitter reliable seed samples scrape_every scrape_out prom_out
      flight_dir ndjson json =
    let parse name = function
      | Ok v -> v
      | Error msg ->
        Printf.eprintf "loadgen: --%s: %s\n" name msg;
        exit 2
    in
    let scenario = parse "scenario" (Loadgen.scenario_of_string scenario) in
    let dist = parse "dist" (Loadgen.Dist.of_string dist) in
    let mix =
      match mix with
      | None -> None
      | Some s ->
        Some
          (String.split_on_char ',' s
           |> List.map (fun w ->
                  match float_of_string_opt (String.trim w) with
                  | Some f -> f
                  | None ->
                    Printf.eprintf "loadgen: --mix: not a number: %S\n" w;
                    exit 2))
    in
    let faults =
      { Transport.Netsim.loss; duplication = dup; reorder; jitter_s = jitter }
    in
    let cfg =
      { Loadgen.scenario; clients; dist; duration_s = duration;
        churn_per_s = churn; versions; mix; sinks; faults; reliable; seed;
        samples; scrape_every_s = scrape_every }
    in
    let report =
      try Loadgen.run cfg
      with Invalid_argument msg ->
        Printf.eprintf "loadgen: %s\n" msg;
        exit 2
    in
    print_string (Loadgen.summary report);
    (match ndjson with
     | None -> ()
     | Some path -> write_file path report.Loadgen.trajectory);
    (match scrape_out with
     | None -> ()
     | Some path -> write_file path report.Loadgen.scrape);
    (match prom_out with
     | None -> ()
     | Some path -> write_file path (Obs.to_prometheus report.Loadgen.metrics));
    (match flight_dir with
     | None -> ()
     | Some dir -> dump_flight ~dir report.Loadgen.flight);
    if json then print_string (Obs.to_json_lines report.Loadgen.metrics)
  in
  let scenario =
    Arg.(value & opt string "echo"
         & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario: echo or b2b")
  in
  let clients =
    Arg.(value & opt int Loadgen.default.Loadgen.clients
         & info [ "clients"; "c" ] ~docv:"N" ~doc:"Simulated client population")
  in
  let dist =
    Arg.(value & opt string (Loadgen.Dist.to_string Loadgen.default.Loadgen.dist)
         & info [ "dist" ] ~docv:"SPEC"
             ~doc:"Arrival process: constant:R, poisson:R or \
                   bursty:RON:ROFF:ON:OFF (rates per simulated second)")
  in
  let duration =
    Arg.(value & opt float Loadgen.default.Loadgen.duration_s
         & info [ "duration"; "d" ] ~docv:"S"
             ~doc:"Load window, simulated seconds")
  in
  let churn =
    Arg.(value & opt float 0.
         & info [ "churn" ] ~docv:"R"
             ~doc:"Membership events (alternating leave/join) per simulated second")
  in
  let versions =
    Arg.(value & opt int Loadgen.default.Loadgen.versions
         & info [ "versions" ] ~docv:"N"
             ~doc:"Format lineage length (v0 base .. v[N-1] head)")
  in
  let mix =
    Arg.(value & opt (some string) None
         & info [ "mix" ] ~docv:"W,W,..."
             ~doc:"Newest-first version weights, e.g. 70,25,5; default 70/25/5")
  in
  let sinks =
    Arg.(value & opt int Loadgen.default.Loadgen.sinks
         & info [ "sinks" ] ~docv:"N"
             ~doc:"Echo scenario: sink subscribers (alternating V2/V1)")
  in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc:"Per-frame loss probability")
  in
  let dup =
    Arg.(value & opt float 0.
         & info [ "dup" ] ~docv:"P" ~doc:"Per-frame duplication probability")
  in
  let reorder =
    Arg.(value & opt float 0.
         & info [ "reorder" ] ~docv:"P" ~doc:"Per-frame reordering probability")
  in
  let jitter =
    Arg.(value & opt float 0.
         & info [ "jitter" ] ~docv:"S" ~doc:"Max extra latency, simulated seconds")
  in
  let reliable =
    Arg.(value & flag
         & info [ "reliable" ]
             ~doc:"Run inner hops (echo/b2b endpoints) under ack + retransmit")
  in
  let seed =
    Arg.(value & opt int Loadgen.default.Loadgen.seed
         & info [ "seed"; "s" ] ~docv:"N" ~doc:"Run seed (faults, mix, arrivals)")
  in
  let samples =
    Arg.(value & opt int Loadgen.default.Loadgen.samples
         & info [ "samples" ] ~docv:"N" ~doc:"Trajectory samples across the window")
  in
  let scrape_every =
    Arg.(value & opt float 0.
         & info [ "scrape-every" ] ~docv:"S"
             ~doc:"Scrape the metrics registry every S simulated seconds \
                   during the run (0 disables); scrapes never perturb the run")
  in
  let scrape_out =
    Arg.(value & opt (some string) None
         & info [ "scrape-out" ] ~docv:"FILE"
             ~doc:"Write the periodic-scrape ndjson to FILE")
  in
  let prom_out =
    Arg.(value & opt (some string) None
         & info [ "prom-out" ] ~docv:"FILE"
             ~doc:"Write the final Prometheus text exposition to FILE")
  in
  let flight_dir =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"Dump captured flight incidents (Chrome trace JSON + text \
                   report per incident) into DIR")
  in
  let ndjson =
    Arg.(value & opt (some string) None
         & info [ "ndjson" ] ~docv:"FILE" ~doc:"Write the ndjson trajectory to FILE")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Also dump the run's full metrics registry as line JSON")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Open-loop load harness: seeded traffic over the virtual clock")
    Term.(const run $ scenario $ clients $ dist $ duration $ churn
          $ versions $ mix $ sinks $ loss $ dup $ reorder $ jitter $ reliable
          $ seed $ samples $ scrape_every $ scrape_out $ prom_out $ flight_dir
          $ ndjson $ json)

(* --- gateway ------------------------------------------------------------- *)

let gateway_cmd =
  let run soak tenants lineages dist duration churn versions push_at deadline
      admit_rate admit_burst max_plans quota parity loss
      dup reorder jitter seed samples scrape_every scrape_out prom_out
      flight_dir ndjson json =
    match soak with
    | Some cases ->
      (* chaos-soak mode: the stressed-by-design campaign instead of a
         configurable load run *)
      if cases < 1 then begin
        Printf.eprintf "gateway: --soak must be positive\n";
        exit 2
      end;
      let d = Morphcheck.Chaos.default_profile in
      let profile =
        { Morphcheck.Chaos.loss = (if loss > 0. then loss else d.Morphcheck.Chaos.loss);
          duplication = (if dup > 0. then dup else d.Morphcheck.Chaos.duplication);
          reorder = (if reorder > 0. then reorder else d.Morphcheck.Chaos.reorder);
          jitter_s = (if jitter > 0. then jitter else d.Morphcheck.Chaos.jitter_s);
          partition = true }
      in
      Printf.printf
        "gateway soak: seed=%d cases=%d loss=%.3f dup=%.3f reorder=%.3f jitter=%gs\n"
        seed cases profile.Morphcheck.Chaos.loss
        profile.Morphcheck.Chaos.duplication profile.Morphcheck.Chaos.reorder
        profile.Morphcheck.Chaos.jitter_s;
      let report = Morphcheck.Gateway_chaos.run ~profile ~seed ~cases () in
      Format.printf "%a@." Morphcheck.Gateway_chaos.pp_report report;
      (* telemetry artifacts ride one extra observed case: same stressed
         shape plus a poison tenant guaranteeing breaker trips, so the
         exports always contain per-tenant shed series and >= 1 flight
         incident *)
      if scrape_out <> None || prom_out <> None || flight_dir <> None then begin
        let ob =
          Morphcheck.Gateway_chaos.run_observed ~profile ~seed
            ?scrape_every_s:(if scrape_every > 0. then Some scrape_every else None)
            ()
        in
        Printf.printf
          "observed case: sent=%d delivered=%d trips=%d incidents=%d quiesced=%b\n"
          ob.Morphcheck.Gateway_chaos.o_sent ob.Morphcheck.Gateway_chaos.o_delivered
          ob.Morphcheck.Gateway_chaos.o_trips
          ob.Morphcheck.Gateway_chaos.o_incidents
          ob.Morphcheck.Gateway_chaos.o_quiesced;
        (match scrape_out with
         | None -> ()
         | Some path -> write_file path ob.Morphcheck.Gateway_chaos.o_scrape);
        (match prom_out with
         | None -> ()
         | Some path ->
           write_file path
             (Obs.to_prometheus ob.Morphcheck.Gateway_chaos.o_metrics));
        (match flight_dir with
         | None -> ()
         | Some dir -> dump_flight ~dir ob.Morphcheck.Gateway_chaos.o_flight)
      end;
      if not (Morphcheck.Gateway_chaos.passed report) then begin
        Printf.printf "gateway soak: reproduce with --seed %d\n" seed;
        exit 1
      end
    | None ->
      let dist =
        match Loadgen.Dist.of_string dist with
        | Ok d -> d
        | Error msg ->
          Printf.eprintf "gateway: --dist: %s\n" msg;
          exit 2
      in
      let gcfg =
        { Gateway.max_plans; tenant_quota = quota; admit_rate; admit_burst; parity }
      in
      let cfg =
        { Loadgen.g_tenants = tenants;
          g_lineages = lineages;
          g_dist = dist;
          g_duration_s = duration;
          g_churn_per_s = churn;
          g_versions = versions;
          g_push_at = push_at;
          g_deadline_s = deadline;
          g_gateway = gcfg;
          g_faults =
            { Transport.Netsim.loss; duplication = dup; reorder;
              jitter_s = jitter };
          g_seed = seed;
          g_samples = samples;
          g_scrape_every_s = scrape_every }
      in
      (match Loadgen.check_gateway cfg with
       | Error e ->
         Printf.eprintf "gateway: %s\n" (Err.message e);
         exit 2
       | Ok () -> ());
      let report = Loadgen.run_gateway cfg in
      print_string (Loadgen.gateway_summary report);
      (match ndjson with
       | None -> ()
       | Some path -> write_file path report.Loadgen.g_trajectory);
      (match scrape_out with
       | None -> ()
       | Some path -> write_file path report.Loadgen.g_scrape);
      (match prom_out with
       | None -> ()
       | Some path ->
         write_file path (Obs.to_prometheus report.Loadgen.g_metrics));
      (match flight_dir with
       | None -> ()
       | Some dir -> dump_flight ~dir report.Loadgen.g_flight);
      if json then print_string (Obs.to_json_lines report.Loadgen.g_metrics)
  in
  let dg = Loadgen.default_gateway in
  let g0 = dg.Loadgen.g_gateway in
  let soak =
    Arg.(value & opt (some int) None
         & info [ "soak" ] ~docv:"N"
             ~doc:"Run the N-case chaos-soak campaign (schema-push storm + \
                   overload burst under faults) instead of a load run")
  in
  let tenants =
    Arg.(value & opt int dg.Loadgen.g_tenants
         & info [ "tenants"; "t" ] ~docv:"N" ~doc:"Tenant population")
  in
  let lineages =
    Arg.(value & opt int dg.Loadgen.g_lineages
         & info [ "lineages" ] ~docv:"N"
             ~doc:"Distinct format lineages shared across the tenants")
  in
  let dist =
    Arg.(value & opt string (Loadgen.Dist.to_string dg.Loadgen.g_dist)
         & info [ "dist" ] ~docv:"SPEC"
             ~doc:"Aggregate arrival process: constant:R, poisson:R or \
                   bursty:RON:ROFF:ON:OFF (messages per simulated second)")
  in
  let duration =
    Arg.(value & opt float dg.Loadgen.g_duration_s
         & info [ "duration"; "d" ] ~docv:"S" ~doc:"Load window, simulated seconds")
  in
  let churn =
    Arg.(value & opt float dg.Loadgen.g_churn_per_s
         & info [ "churn" ] ~docv:"R"
             ~doc:"Tenant leave/join events per simulated second")
  in
  let versions =
    Arg.(value & opt int dg.Loadgen.g_versions
         & info [ "versions" ] ~docv:"N" ~doc:"Format lineage length")
  in
  let push_at =
    Arg.(value & opt_all float dg.Loadgen.g_push_at
         & info [ "push-at" ] ~docv:"S"
             ~doc:"Mass schema-push storm at this simulated time (repeatable)")
  in
  let deadline =
    Arg.(value & opt float dg.Loadgen.g_deadline_s
         & info [ "deadline" ] ~docv:"S"
             ~doc:"Per-message deadline budget carried in the envelope; 0 \
                   disables deadlines")
  in
  let admit_rate =
    Arg.(value & opt float g0.Gateway.admit_rate
         & info [ "admit-rate" ] ~docv:"R"
             ~doc:"Per-tenant admission rate, messages per simulated second; \
                   0 disables rate admission")
  in
  let admit_burst =
    Arg.(value & opt float g0.Gateway.admit_burst
         & info [ "admit-burst" ] ~docv:"N" ~doc:"Per-tenant admission burst size")
  in
  let max_plans =
    Arg.(value & opt int g0.Gateway.max_plans
         & info [ "max-plans" ] ~docv:"N" ~doc:"Shared plan-cache entry bound")
  in
  let quota =
    Arg.(value & opt int g0.Gateway.tenant_quota
         & info [ "tenant-quota" ] ~docv:"N" ~doc:"Per-tenant plan-cache quota")
  in
  let parity =
    Arg.(value & flag
         & info [ "parity" ]
             ~doc:"Cross-check every delivery against the interpretive \
                   reference decoder")
  in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc:"Per-frame loss probability")
  in
  let dup =
    Arg.(value & opt float 0.
         & info [ "dup" ] ~docv:"P" ~doc:"Per-frame duplication probability")
  in
  let reorder =
    Arg.(value & opt float 0.
         & info [ "reorder" ] ~docv:"P" ~doc:"Per-frame reordering probability")
  in
  let jitter =
    Arg.(value & opt float 0.
         & info [ "jitter" ] ~docv:"S" ~doc:"Max extra latency, simulated seconds")
  in
  let seed =
    Arg.(value & opt int dg.Loadgen.g_seed
         & info [ "seed"; "s" ] ~docv:"N" ~doc:"Run / campaign seed")
  in
  let samples =
    Arg.(value & opt int dg.Loadgen.g_samples
         & info [ "samples" ] ~docv:"N" ~doc:"Trajectory samples across the window")
  in
  let scrape_every =
    Arg.(value & opt float 0.
         & info [ "scrape-every" ] ~docv:"S"
             ~doc:"Scrape the metrics registry every S simulated seconds \
                   during the run (0 disables; the soak's observed case \
                   defaults to 0.02); scrapes never perturb the run")
  in
  let scrape_out =
    Arg.(value & opt (some string) None
         & info [ "scrape-out" ] ~docv:"FILE"
             ~doc:"Write the periodic-scrape ndjson to FILE (with --soak, \
                   from the telemetry-observed extra case)")
  in
  let prom_out =
    Arg.(value & opt (some string) None
         & info [ "prom-out" ] ~docv:"FILE"
             ~doc:"Write the final Prometheus text exposition (per-tenant \
                   and per-rung series included) to FILE")
  in
  let flight_dir =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"Dump captured flight incidents (Chrome trace JSON + text \
                   report per incident) into DIR")
  in
  let ndjson =
    Arg.(value & opt (some string) None
         & info [ "ndjson" ] ~docv:"FILE" ~doc:"Write the ndjson trajectory to FILE")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Also dump the run's full metrics registry as line JSON")
  in
  Cmd.v
    (Cmd.info "gateway"
       ~doc:"Multi-tenant morphing gateway under seeded load, or its chaos-soak \
             campaign (--soak)")
    Term.(const run $ soak $ tenants $ lineages $ dist $ duration $ churn
          $ versions $ push_at $ deadline $ admit_rate $ admit_burst $ max_plans
          $ quota $ parity $ loss $ dup
          $ reorder $ jitter $ seed $ samples $ scrape_every $ scrape_out
          $ prom_out $ flight_dir $ ndjson $ json)

let () =
  let info =
    Cmd.info "morphctl" ~version:"1.0.0"
      ~doc:"Message-morphing toolkit (ICDCS 2005 reproduction)"
  in
  exit (Cmd.eval (Cmd.group info [ show_cmd; diff_cmd; maxmatch_cmd; encode_cmd; xform_cmd; explain_cmd; sizes_cmd; demo_cmd; stats_cmd; trace_cmd; morphcheck_cmd; parallel_cmd; chaos_cmd; loadgen_cmd; gateway_cmd ]))
