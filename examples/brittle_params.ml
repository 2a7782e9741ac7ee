(* The "brittle parameter problem" (Lee et al., cited in the paper's
   Section 5): a newer message version adds detail fields that an old client
   neither needs nor understands — and in rigid typed middleware that alone
   breaks interoperability.

   With message morphing no transformation code is even necessary: MaxMatch
   accepts the near-miss and the structural conversion step of Algorithm 2
   (fill defaults, drop unknown fields) delivers the message.  The paper
   notes this is *cheaper* than the Figure 5 case, because nothing needs to
   be restructured — this example also shows the threshold knobs deciding
   how much drift a deployment tolerates.

   Run with: dune exec examples/brittle_params.exe *)

open Pbio

(* What the deployed fleet understands. *)
let telemetry_v1 =
  Ptype_dsl.format_of_string_exn
    {|format Telemetry {
        string host;
        int cpu;
        int mem;
      }|}

(* What the upgraded sensors now send: same data plus optional detail. *)
let telemetry_v3 =
  Ptype_dsl.format_of_string_exn
    {|format Telemetry {
        string host;
        int cpu;
        int mem;
        int iowait;
        float temperature;
        string firmware;
        int n;
        int per_core[n];
      }|}

let sample =
  Value.record
    [
      ("host", Value.String "node07.cluster");
      ("cpu", Value.Int 62);
      ("mem", Value.Int 48);
      ("iowait", Value.Int 3);
      ("temperature", Value.Float 71.5);
      ("firmware", Value.String "fw-9.4.1");
      ("n", Value.Int 4);
      ("per_core", Value.array_of_list (List.map (fun n -> Value.Int n) [ 60; 64; 63; 61 ]));
    ]

let deliver ~label thresholds =
  let receiver =
    Morph.Receiver.create ~config:(Morph.Receiver.Config.v ~thresholds ()) ()
  in
  Morph.Receiver.register receiver telemetry_v1 (fun v ->
      Printf.printf "      v1 handler: host=%s cpu=%d mem=%d\n"
        (Value.to_string_exn (Value.get_field v "host"))
        (Value.to_int (Value.get_field v "cpu"))
        (Value.to_int (Value.get_field v "mem")));
  let outcome =
    Morph.Receiver.deliver receiver (Meta.plain telemetry_v3) sample
  in
  Format.printf "   %-42s -> %a@." label Morph.Receiver.pp_outcome outcome

let () =
  Format.printf "diff(v3, v1) = %d, Mr(v3, v1) = %.3f — the extra detail is all \
                 that separates the versions@.@."
    (Morph.Diff.diff telemetry_v3 telemetry_v1)
    (Morph.Diff.mismatch_ratio telemetry_v3 telemetry_v1);

  deliver ~label:"default thresholds (diff<=8, Mr<=0.5)"
    Morph.Maxmatch.default_thresholds;
  deliver ~label:"tolerant deployment (diff<=16, Mr<=0.9)"
    { Morph.Maxmatch.diff_threshold = 16; mismatch_threshold = 0.9 };
  deliver ~label:"strict deployment (perfect matches only)"
    Morph.Maxmatch.strict_thresholds;

  print_endline
    "\nOK: optional detail no longer breaks old clients; thresholds set the \
     policy."
