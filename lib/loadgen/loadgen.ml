(* The open-loop load harness: seeded traffic over the virtual clock. *)

module Dist = Dist
module Population = Population

open Pbio
module Netsim = Transport.Netsim
module Contact = Transport.Contact
module Receiver = Morph.Receiver

type scenario =
  | Echo
  | B2b

let scenario_to_string = function Echo -> "echo" | B2b -> "b2b"

let scenario_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "echo" -> Ok Echo
  | "b2b" -> Ok B2b
  | other -> Error (Printf.sprintf "unknown scenario %S (want echo or b2b)" other)

type config = {
  scenario : scenario;
  clients : int;
  dist : Dist.t;
  duration_s : float;
  churn_per_s : float;
  versions : int;
  mix : float list option;
  sinks : int;
  faults : Netsim.faults;
  reliable : bool;
  seed : int;
  samples : int;
  scrape_every_s : float;  (* periodic metric scrape cadence; 0 = off *)
}

let default =
  {
    scenario = Echo;
    clients = 1_000;
    dist = Dist.Poisson 2_000.;
    duration_s = 0.5;
    churn_per_s = 0.;
    versions = 3;
    mix = None;
    sinks = 2;
    faults = Netsim.no_faults;
    reliable = false;
    seed = 42;
    samples = 10;
    scrape_every_s = 0.;
  }

type via_counts = {
  mutable exact : int;
  mutable reordered : int;
  mutable converted : int;
  mutable morphed : int;
  mutable morphed_converted : int;
}

type report = {
  config : config;
  mix_desc : string;
  sent : int;
  ingress_delivered : int;
  ingress_rejected : int;
  ingress_defaulted : int;
  vias : via_counts;
  delivered : int;
  joins : int;
  leaves : int;
  active_end : int;
  net_delivered : int;
  net_bytes : int;
  net_dropped : int;
  net_duplicated : int;
  latency : Obs.Histogram.snapshot option;
  sim_end : float;
  quiesced : bool;
  trajectory : string;
  scrape : string;
  metrics : Obs.t;
  flight : Obs.Flight.recorder;
}

(* Simulated-latency buckets: per-decade 1/1.5/2/3/5/7 steps from 100 us
   to 10 s, fine enough that bucket-derived p50/p99/p999 move when tails
   do.  Virtual latencies start at the 100 us link delay and grow with
   FIFO queueing, retransmits and jitter. *)
let latency_buckets =
  List.concat_map
    (fun e ->
       List.map
         (fun m -> m *. (10. ** float_of_int e))
         [ 1.; 1.5; 2.; 3.; 5.; 7. ])
    [ -4; -3; -2; -1; 0 ]

(* Loadgen frame: a 20-byte header (client, seq, version, send time) in
   front of the pre-encoded wire message.  The header rides outside the
   PBIO message so latency bookkeeping never depends on which fields
   survive the lineage's evolution steps. *)
let header_len = 20

let frame ~client ~seq ~version ~t0 (body : string) : string =
  let b = Bytes.create (header_len + String.length body) in
  Bytes.set_int32_le b 0 (Int32.of_int client);
  Bytes.set_int32_le b 4 (Int32.of_int seq);
  Bytes.set_int32_le b 8 (Int32.of_int version);
  Bytes.set_int64_le b 12 (Int64.bits_of_float t0);
  Bytes.blit_string body 0 b header_len (String.length body);
  Bytes.unsafe_to_string b

let parse_frame (s : string) : (int * int * int * float * string) option =
  if String.length s < header_len then None
  else
    Some
      ( Int32.to_int (String.get_int32_le s 0),
        Int32.to_int (String.get_int32_le s 4),
        Int32.to_int (String.get_int32_le s 8),
        Int64.float_of_bits (String.get_int64_le s 12),
        String.sub s header_len (String.length s - header_len) )

(* Event payloads carry "client:seq:hex-float-send-time"; %h round-trips
   floats exactly, so end-to-end latency is bit-stable. *)
let payload_of ~client ~seq ~t0 = Printf.sprintf "%d:%d:%h" client seq t0

let parse_payload (s : string) : (int * int * float) option =
  match String.split_on_char ':' s with
  | [ c; q; t ] ->
    (try Some (int_of_string c, int_of_string q, float_of_string t)
     with _ -> None)
  | _ -> None

(* Periodic metric scrapes on the virtual clock: one ndjson object per
   scrape freezing the whole registry.  A scrape only *reads* the
   registry — it draws no randomness and sends nothing — and the event
   queue breaks time ties by insertion order, so a run's summary is
   byte-identical with scraping on or off (test_loadgen asserts this). *)
let scrape_append buf ~n ~t reg =
  let series =
    Obs.to_json_lines reg |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> String.concat ","
  in
  Buffer.add_string buf
    (Printf.sprintf {|{"scrape":%d,"t":%.6f,"series":[%s]}|} n t series);
  Buffer.add_char buf '\n'

(* Every config field checked up front, as data: a config that passes
   [check] cannot raise later from inside the run (notably
   [Dist.next_gap], which otherwise only rejects a non-positive rate at
   gap time, mid-simulation). *)
let check (cfg : config) : (unit, Err.t) result =
  let err fmt = Printf.ksprintf (fun m -> Error (`Config m)) fmt in
  if cfg.clients < 1 then err "clients must be >= 1 (got %d)" cfg.clients
  else if cfg.duration_s <= 0. then
    err "duration must be > 0 (got %g)" cfg.duration_s
  else if cfg.versions < 1 then err "versions must be >= 1 (got %d)" cfg.versions
  else if cfg.sinks < 1 then err "sinks must be >= 1 (got %d)" cfg.sinks
  else if cfg.churn_per_s < 0. then
    err "churn must be >= 0 (got %g)" cfg.churn_per_s
  else if cfg.samples < 1 then err "samples must be >= 1 (got %d)" cfg.samples
  else if not (cfg.scrape_every_s >= 0.) then
    err "scrape interval must be >= 0 (got %g)" cfg.scrape_every_s
  else
    match Dist.validate cfg.dist with
    | Error m -> err "arrival distribution: %s" m
    | Ok () ->
      (match cfg.mix with
       | Some mix when List.exists (fun w -> w < 0. || Float.is_nan w) mix ->
         err "mix weights must be >= 0"
       | Some mix when not (List.exists (fun w -> w > 0.) mix) ->
         err "mix needs at least one positive weight"
       | _ -> Ok ())

let validate (cfg : config) =
  match check cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Loadgen.run: " ^ Err.message e)

let run (cfg : config) : report =
  validate cfg;
  let reg = Obs.create ~label:"loadgen" () in
  let net = Netsim.create ~seed:cfg.seed ~metrics:reg () in
  Obs.set_registry_clock reg (fun () -> Netsim.now net *. 1e9);
  if cfg.faults <> Netsim.no_faults then Netsim.set_faults net cfg.faults;
  let pop = Population.make ?mix:cfg.mix ~versions:cfg.versions ~seed:cfg.seed () in
  let pvs = Population.versions pop in
  (* Independent RNG streams so arrivals, churn and client picks cannot
     perturb each other (or the fault model, which owns the netsim seed). *)
  let arr_rng = Random.State.make [| 0x10adc3; cfg.seed; 17 |] in
  let churn_rng = Random.State.make [| 0x10adc3; cfg.seed; 23 |] in
  let pick_rng = Random.State.make [| 0x10adc3; cfg.seed; 29 |] in

  (* Clients are O(1) records: netsim only requires the *destination* of
     a send to be registered, so 100k+ senders need no per-client node,
     endpoint or format-cache state. *)
  let contacts = Array.init cfg.clients (fun i -> Contact.make "client" i) in
  let version_of = Array.init cfg.clients (fun _ -> Population.pick pop pick_rng) in

  (* Active set: [order.(0 .. !n_active-1)] are active, the rest parked;
     swap-remove keeps joins and leaves O(1). *)
  let order = Array.init cfg.clients (fun i -> i) in
  let pos = Array.init cfg.clients (fun i -> i) in
  let n_active = ref cfg.clients in
  let joins = ref 0 and leaves = ref 0 in
  let swap i j =
    let a = order.(i) and b = order.(j) in
    order.(i) <- b;
    order.(j) <- a;
    pos.(a) <- j;
    pos.(b) <- i
  in
  let leave () =
    if !n_active > 1 then begin
      swap (Random.State.int churn_rng !n_active) (!n_active - 1);
      decr n_active;
      incr leaves
    end
  in
  let join () =
    let parked = cfg.clients - !n_active in
    if parked > 0 then begin
      swap (!n_active + Random.State.int churn_rng parked) !n_active;
      incr n_active;
      incr joins
    end
  in

  let m_ingress =
    Obs.Histogram.make reg ~unit_:"s" ~buckets:latency_buckets
      "loadgen.ingress_latency_s"
  in
  let m_e2e =
    Obs.Histogram.make reg ~unit_:"s" ~buckets:latency_buckets
      "loadgen.latency_s"
  in
  let sent = ref 0 in
  let delivered = ref 0 in
  let rejected = ref 0 and defaulted = ref 0 in
  let vias =
    { exact = 0; reordered = 0; converted = 0; morphed = 0; morphed_converted = 0 }
  in
  let observe_e2e t0 =
    incr delivered;
    Obs.Histogram.observe m_e2e (Netsim.now net -. t0)
  in

  let flight = Obs.Flight.create reg in
  let recv =
    Receiver.create ~config:(Receiver.Config.v ~metrics:reg ~flight ()) ()
  in

  (* The header of the message being delivered; delivery is synchronous,
     so the base-format handler reads it from here. *)
  let cur_client = ref 0 and cur_seq = ref 0 and cur_t0 = ref 0. in

  (* Scenario back-ends: [on_base] consumes each message the ingress
     receiver delivered (morphed into the base format). *)
  let on_base =
    match cfg.scenario with
    | Echo ->
      let creator =
        Echo.Node.create ~reliable:cfg.reliable ~metrics:reg net
          ~host:"creator" ~port:1 Echo.Node.V2
      in
      Echo.Node.create_channel creator "load" ~as_source:true ~as_sink:false;
      for i = 0 to cfg.sinks - 1 do
        let version = if i mod 2 = 1 then Echo.Node.V1 else Echo.Node.V2 in
        let sink =
          Echo.Node.create ~reliable:cfg.reliable ~metrics:reg net
            ~host:"sink" ~port:(100 + i) version
        in
        Echo.Node.join sink ~creator:(Echo.Node.contact creator) "load"
          ~as_source:false ~as_sink:true;
        Echo.Node.subscribe_events sink "load" (fun payload ->
            match parse_payload payload with
            | Some (_, _, t0) -> observe_e2e t0
            | None -> ())
      done;
      fun () ->
        Echo.Node.publish creator "load"
          (payload_of ~client:!cur_client ~seq:!cur_seq ~t0:!cur_t0)
    | B2b ->
      let bmode = B2b.Broker.Morph_at_receiver in
      let broker =
        B2b.Broker.create ~reliable:cfg.reliable ~metrics:reg net ~host:"broker"
          ~port:1 bmode
      in
      let bc = B2b.Broker.contact broker in
      let supplier =
        B2b.Supplier.create ~reliable:cfg.reliable ~metrics:reg net
          ~host:"supplier" ~port:2 ~broker:bc bmode
      in
      let retailer =
        B2b.Retailer.create ~reliable:cfg.reliable ~metrics:reg net
          ~host:"retailer" ~port:3 ~broker:bc bmode
      in
      B2b.Broker.connect broker
        ~retailer:(B2b.Retailer.contact retailer)
        ~supplier:(B2b.Supplier.contact supplier);
      let sent_at : (int, float) Hashtbl.t = Hashtbl.create 1024 in
      Receiver.set_delivery_probe
        (B2b.Retailer.receiver retailer)
        (Some
           (fun v _outcome ->
             match v with
             | Some v when Value.has_field v "order_id" ->
               let oid = Value.to_int (Value.get_field v "order_id") in
               (match Hashtbl.find_opt sent_at oid with
                | Some t0 ->
                  Hashtbl.remove sent_at oid;
                  observe_e2e t0
                | None -> ())
             | _ -> ()));
      fun () ->
        (* gen_order i stamps order_id = 1000 + i *)
        Hashtbl.replace sent_at (1000 + !cur_seq) !cur_t0;
        B2b.Retailer.send_order retailer (B2b.Formats.gen_order !cur_seq)
  in
  Receiver.register recv (Population.base pop) (fun _v -> on_base ());

  let ingress = Contact.make "ingress" 1 in
  Netsim.add_node net ingress (fun ~src:_ payload ->
      match parse_frame payload with
      | None -> incr rejected
      | Some (client, seq, version, t0, body) ->
        if version < 0 || version >= Array.length pvs then incr rejected
        else begin
          Obs.Histogram.observe m_ingress (Netsim.now net -. t0);
          cur_client := client;
          cur_seq := seq;
          cur_t0 := t0;
          match Receiver.deliver_wire recv pvs.(version).meta body with
          | Receiver.Delivered { via; _ } -> (
            match via with
            | Receiver.Exact -> vias.exact <- vias.exact + 1
            | Receiver.Reordered -> vias.reordered <- vias.reordered + 1
            | Receiver.Converted -> vias.converted <- vias.converted + 1
            | Receiver.Morphed _ -> vias.morphed <- vias.morphed + 1
            | Receiver.Morphed_converted _ ->
              vias.morphed_converted <- vias.morphed_converted + 1)
          | Receiver.Defaulted -> incr defaulted
          | Receiver.Rejected _ -> incr rejected
        end);

  (* Settle the setup traffic (channel joins, broker wiring) so the load
     window starts from a quiet network. *)
  ignore (Netsim.run ~max_steps:1_000_000 net);
  let t_start = Netsim.now net in
  let elapsed () = Netsim.now net -. t_start in

  let seq = ref 0 in
  let send_one () =
    if !n_active > 0 then begin
      let client = order.(Random.State.int pick_rng !n_active) in
      let version = version_of.(client) in
      let t0 = Netsim.now net in
      incr seq;
      incr sent;
      Netsim.send net ~src:contacts.(client) ~dst:ingress
        (frame ~client ~seq:!seq ~version ~t0 pvs.(version).bytes)
    end
  in
  let schedule_chain gap_of action =
    let rec tick () =
      if elapsed () < cfg.duration_s then begin
        action ();
        let gap = gap_of () in
        if elapsed () +. gap < cfg.duration_s then Netsim.after net gap tick
      end
    in
    let first = gap_of () in
    if first < cfg.duration_s then Netsim.after net first tick
  in
  schedule_chain
    (fun () -> Dist.next_gap cfg.dist ~now:(elapsed ()) arr_rng)
    send_one;
  if cfg.churn_per_s > 0. then begin
    let k = ref 0 in
    schedule_chain
      (fun () -> Dist.next_gap (Dist.Poisson cfg.churn_per_s) ~now:(elapsed ()) churn_rng)
      (fun () ->
        if !k land 1 = 0 then leave () else join ();
        incr k)
  end;

  (* Trajectory sampling: fixed wall-free cadence over the load window,
     plus one final sample after the drain. *)
  let traj = Buffer.create 512 in
  let sample ~final () =
    let p q =
      match Obs.Histogram.snapshot reg "loadgen.latency_s" with
      | Some s -> Obs.Histogram.quantile s q
      | None -> 0.
    in
    Buffer.add_string traj
      (Printf.sprintf
         {|{"t":%.6f,"sent":%d,"delivered":%d,"active":%d,"p50":%.6f,"p99":%.6f,"p999":%.6f,"net_drops":%d,"final":%b}|}
         (elapsed ()) !sent !delivered !n_active (p 0.50) (p 0.99) (p 0.999)
         (Netsim.dropped (Netsim.stats net))
         final);
    Buffer.add_char traj '\n'
  in
  let sample_gap = cfg.duration_s /. float_of_int cfg.samples in
  schedule_chain (fun () -> sample_gap) (fun () -> sample ~final:false ());

  let scrapes = Buffer.create 256 in
  let scrape_n = ref 0 in
  let scrape () =
    incr scrape_n;
    scrape_append scrapes ~n:!scrape_n ~t:(elapsed ()) reg
  in
  if cfg.scrape_every_s > 0. then
    schedule_chain (fun () -> cfg.scrape_every_s) (fun () -> scrape ());

  let res = Netsim.run ~max_steps:1_000_000_000 net in
  sample ~final:true ();
  if cfg.scrape_every_s > 0. then scrape ();

  let st = Netsim.stats net in
  {
    config = cfg;
    mix_desc = Population.describe_mix pop;
    sent = !sent;
    ingress_delivered =
      vias.exact + vias.reordered + vias.converted + vias.morphed
      + vias.morphed_converted;
    ingress_rejected = !rejected;
    ingress_defaulted = !defaulted;
    vias;
    delivered = !delivered;
    joins = !joins;
    leaves = !leaves;
    active_end = !n_active;
    net_delivered = st.Netsim.messages;
    net_bytes = st.Netsim.bytes;
    net_dropped = Netsim.dropped st;
    net_duplicated = st.Netsim.duplicated;
    latency = Obs.Histogram.snapshot reg "loadgen.latency_s";
    sim_end = elapsed ();
    quiesced = res.Netsim.quiesced;
    trajectory = Buffer.contents traj;
    scrape = Buffer.contents scrapes;
    metrics = reg;
    flight;
  }

let percentile (r : report) q =
  match r.latency with Some s -> Obs.Histogram.quantile s q | None -> 0.

let summary (r : report) : string =
  let cfg = r.config in
  let b = Buffer.create 512 in
  let p fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let f = cfg.faults in
  p "loadgen v1";
  p "scenario=%s seed=%d clients=%d dist=%s duration=%.3fs churn=%g/s sinks=%d"
    (scenario_to_string cfg.scenario)
    cfg.seed cfg.clients (Dist.to_string cfg.dist) cfg.duration_s
    cfg.churn_per_s cfg.sinks;
  p "versions=%d mix=%s" cfg.versions r.mix_desc;
  p "faults loss=%.3f dup=%.3f reorder=%.3f jitter=%.4fs reliable=%b"
    f.Netsim.loss f.Netsim.duplication f.Netsim.reorder f.Netsim.jitter_s
    cfg.reliable;
  p "sent=%d ingress_delivered=%d delivered=%d rejected=%d defaulted=%d"
    r.sent r.ingress_delivered r.delivered r.ingress_rejected
    r.ingress_defaulted;
  p "via exact=%d reordered=%d converted=%d morphed=%d morphed_converted=%d"
    r.vias.exact r.vias.reordered r.vias.converted r.vias.morphed
    r.vias.morphed_converted;
  p "churn joins=%d leaves=%d active_end=%d" r.joins r.leaves r.active_end;
  p "net delivered=%d bytes=%d dropped=%d duplicated=%d" r.net_delivered
    r.net_bytes r.net_dropped r.net_duplicated;
  (match r.latency with
   | Some s ->
     p "latency p50=%.6fs p99=%.6fs p999=%.6fs max=%.6fs n=%d"
       (Obs.Histogram.quantile s 0.50)
       (Obs.Histogram.quantile s 0.99)
       (Obs.Histogram.quantile s 0.999)
       s.Obs.Histogram.max s.Obs.Histogram.count
   | None -> p "latency n=0");
  p "throughput=%.1f/s sim_end=%.6fs quiesced=%b"
    (float_of_int r.delivered /. cfg.duration_s)
    r.sim_end r.quiesced;
  Buffer.contents b

(* --- the gateway scenario -------------------------------------------------

   Open-loop load against one multi-tenant morphing gateway: [g_tenants]
   senders share [g_lineages] distinct format lineages, push their
   meta-data through the same Described envelopes as their data, and the
   [g_push_at] times fire mass schema-push storms (every tenant advances
   one version and re-pushes at once — the recompile-storm case the
   gateway's singleflight compiles exist for).

   Latency is deadline-derived: when [g_deadline_s > 0] every message
   carries [now + deadline] and the delivery handler recovers the send
   time as [deadline - g_deadline_s], so the measurement needs no side
   channel through the gateway. *)

type gateway_config = {
  g_tenants : int;
  g_lineages : int;  (* distinct lineages shared across tenants *)
  g_dist : Dist.t;  (* aggregate arrivals across all tenants *)
  g_duration_s : float;
  g_churn_per_s : float;
  g_versions : int;
  g_push_at : float list;  (* storm times, seconds into the load window *)
  g_deadline_s : float;  (* per-message deadline; 0 = none *)
  g_gateway : Gateway.config;
  g_faults : Netsim.faults;
  g_seed : int;
  g_samples : int;
  g_scrape_every_s : float;  (* periodic metric scrape cadence; 0 = off *)
}

let default_gateway =
  {
    g_tenants = 200;
    g_lineages = 8;
    g_dist = Dist.Poisson 4_000.;
    g_duration_s = 0.5;
    g_churn_per_s = 0.;
    g_versions = 3;
    g_push_at = [];
    g_deadline_s = 0.02;
    g_gateway = Gateway.default_config;
    g_faults = Netsim.no_faults;
    g_seed = 42;
    g_samples = 10;
    g_scrape_every_s = 0.;
  }

type gateway_report = {
  g_config : gateway_config;
  g_sent : int;
  g_pushes : int;
  g_joins : int;
  g_leaves : int;
  g_active_end : int;
  g_stats : Gateway.stats;
  g_cache : Gateway.Plan_cache.stats;
  g_breakers_open_end : int;
  g_latency : Obs.Histogram.snapshot option;
  g_sim_end : float;
  g_quiesced : bool;
  g_trajectory : string;
  g_scrape : string;
  g_metrics : Obs.t;
  g_flight : Obs.Flight.recorder;
}

(* Same contract as [check]: a config that passes cannot raise later from
   inside [run_gateway] — including [Gateway.create], whose own check
   this runs. *)
let check_gateway (cfg : gateway_config) : (unit, Err.t) result =
  let err fmt = Printf.ksprintf (fun m -> Error (`Config m)) fmt in
  if cfg.g_tenants < 1 then err "tenants must be >= 1 (got %d)" cfg.g_tenants
  else if cfg.g_lineages < 1 then
    err "lineages must be >= 1 (got %d)" cfg.g_lineages
  else if cfg.g_duration_s <= 0. then
    err "duration must be > 0 (got %g)" cfg.g_duration_s
  else if cfg.g_versions < 1 then
    err "versions must be >= 1 (got %d)" cfg.g_versions
  else if cfg.g_churn_per_s < 0. then
    err "churn must be >= 0 (got %g)" cfg.g_churn_per_s
  else if cfg.g_samples < 1 then err "samples must be >= 1 (got %d)" cfg.g_samples
  else if not (cfg.g_scrape_every_s >= 0.) then
    err "scrape interval must be >= 0 (got %g)" cfg.g_scrape_every_s
  else if not (cfg.g_deadline_s >= 0.) then
    err "deadline must be >= 0 (got %g)" cfg.g_deadline_s
  else if List.exists (fun at -> not (at >= 0.)) cfg.g_push_at then
    err "push times must be >= 0"
  else
    match Gateway.check_config cfg.g_gateway, Dist.validate cfg.g_dist with
    | Error m, _ -> Error (`Config m)
    | Ok (), Error m -> err "arrival distribution: %s" m
    | Ok (), Ok () -> Ok ()

let run_gateway (cfg : gateway_config) : gateway_report =
  (match check_gateway cfg with
   | Ok () -> ()
   | Error e -> invalid_arg ("Loadgen.run_gateway: " ^ Err.message e));
  let reg = Obs.create ~label:"gateway" () in
  let net = Netsim.create ~seed:cfg.g_seed ~metrics:reg () in
  Obs.set_registry_clock reg (fun () -> Netsim.now net *. 1e9);
  if cfg.g_faults <> Netsim.no_faults then Netsim.set_faults net cfg.g_faults;
  let lineages = min cfg.g_lineages cfg.g_tenants in
  let pops =
    Array.init lineages (fun k ->
        Population.make ~versions:cfg.g_versions ~seed:(cfg.g_seed + (7919 * k)) ())
  in
  let pop_of i = pops.(i mod lineages) in
  let arr_rng = Random.State.make [| 0x6a7e; cfg.g_seed; 17 |] in
  let churn_rng = Random.State.make [| 0x6a7e; cfg.g_seed; 23 |] in
  let pick_rng = Random.State.make [| 0x6a7e; cfg.g_seed; 29 |] in

  let m_lat =
    Obs.Histogram.make reg ~unit_:"s" ~buckets:latency_buckets
      "gateway.latency_s"
  in
  (* Per-rung delivery latency, one labeled series per engine: the
     gateway reports the engine each message decoded at. *)
  let rung_lat =
    Obs.Labeled.histogram reg ~unit_:"s" ~buckets:latency_buckets
      ~keys:[ "rung" ] "gateway.rung.latency_s"
  in
  let lat_fused = Obs.Labeled.histogram_series rung_lat [ "fused" ] in
  let lat_staged = Obs.Labeled.histogram_series rung_lat [ "staged" ] in
  let flight = Obs.Flight.create reg in
  let gw_contact = Contact.make "gateway" 1 in
  let gw =
    Gateway.create ~config:cfg.g_gateway ~metrics:reg ~flight ~net gw_contact
      (fun (d : Gateway.delivery) ->
        if cfg.g_deadline_s > 0. && d.Gateway.deadline_ns > 0 then begin
          let t0 =
            (float_of_int d.Gateway.deadline_ns /. 1e9) -. cfg.g_deadline_s
          in
          let lat = Netsim.now net -. t0 in
          Obs.Histogram.observe m_lat lat;
          Obs.Histogram.observe
            (match d.Gateway.rung with
             | Gateway.Fused -> lat_fused
             | Gateway.Staged -> lat_staged)
            lat
        end)
  in
  Gateway.attach gw;

  let contacts = Array.init cfg.g_tenants (fun i -> Contact.make "tenant" i) in
  let version_of = Array.make cfg.g_tenants 0 in
  let pushes = ref 0 in
  let push_meta i =
    let pv = (Population.versions (pop_of i)).(version_of.(i)) in
    let fp = Gateway.fingerprint pv.Population.meta in
    incr pushes;
    Netsim.send net ~src:contacts.(i) ~dst:gw_contact
      (Transport.Framing.encode
         (Gateway.envelope ~tenant:i ~fingerprint:fp
            (Transport.Framing.Meta
               { format_id = pv.Population.index;
                 meta = Meta.encode pv.Population.meta })))
  in

  (* Active set, as in [run]: O(1) swap-remove joins and leaves.  A
     leaving tenant just goes quiet (its plans age out of the LRU); a
     joining tenant comes back one version newer and re-pushes. *)
  let order = Array.init cfg.g_tenants (fun i -> i) in
  let pos = Array.init cfg.g_tenants (fun i -> i) in
  let n_active = ref cfg.g_tenants in
  let joins = ref 0 and leaves = ref 0 in
  let swap i j =
    let a = order.(i) and b = order.(j) in
    order.(i) <- b;
    order.(j) <- a;
    pos.(a) <- j;
    pos.(b) <- i
  in
  let leave () =
    if !n_active > 1 then begin
      swap (Random.State.int churn_rng !n_active) (!n_active - 1);
      decr n_active;
      incr leaves
    end
  in
  let join () =
    let parked = cfg.g_tenants - !n_active in
    if parked > 0 then begin
      let slot = !n_active + Random.State.int churn_rng parked in
      let tenant = order.(slot) in
      swap slot !n_active;
      incr n_active;
      incr joins;
      version_of.(tenant) <- (version_of.(tenant) + 1) mod cfg.g_versions;
      push_meta tenant
    end
  in

  (* Onboarding: every tenant pushes its v0 meta (pinning the lineage
     base as its delivery target), then settle before the load window. *)
  for i = 0 to cfg.g_tenants - 1 do
    push_meta i
  done;
  ignore (Netsim.run ~max_steps:1_000_000_000 net);
  let t_start = Netsim.now net in
  let elapsed () = Netsim.now net -. t_start in

  let sent = ref 0 in
  let send_one () =
    if !n_active > 0 then begin
      let i = order.(Random.State.int pick_rng !n_active) in
      let pv = (Population.versions (pop_of i)).(version_of.(i)) in
      let fp = Gateway.fingerprint pv.Population.meta in
      let deadline_ns =
        if cfg.g_deadline_s > 0. then
          int_of_float ((Netsim.now net +. cfg.g_deadline_s) *. 1e9)
        else 0
      in
      incr sent;
      Netsim.send net ~src:contacts.(i) ~dst:gw_contact
        (Transport.Framing.encode
           (Gateway.envelope ~tenant:i ~fingerprint:fp ~deadline_ns
              (Transport.Framing.Data
                 { format_id = pv.Population.index;
                   message = pv.Population.bytes })))
    end
  in
  let schedule_chain gap_of action =
    let rec tick () =
      if elapsed () < cfg.g_duration_s then begin
        action ();
        let gap = gap_of () in
        if elapsed () +. gap < cfg.g_duration_s then Netsim.after net gap tick
      end
    in
    let first = gap_of () in
    if first < cfg.g_duration_s then Netsim.after net first tick
  in
  schedule_chain
    (fun () -> Dist.next_gap cfg.g_dist ~now:(elapsed ()) arr_rng)
    send_one;
  if cfg.g_churn_per_s > 0. then begin
    let k = ref 0 in
    schedule_chain
      (fun () ->
        Dist.next_gap (Dist.Poisson cfg.g_churn_per_s) ~now:(elapsed ())
          churn_rng)
      (fun () ->
        if !k land 1 = 0 then leave () else join ();
        incr k)
  end;

  (* Schema-push storms: at each [g_push_at], every tenant advances one
     version and re-pushes its meta-data at once. *)
  List.iter
    (fun at ->
      Netsim.after net at (fun () ->
          for i = 0 to cfg.g_tenants - 1 do
            version_of.(i) <- (version_of.(i) + 1) mod cfg.g_versions;
            push_meta i
          done))
    cfg.g_push_at;

  let traj = Buffer.create 512 in
  let sample ~final () =
    let s = Gateway.stats gw in
    let c = Gateway.cache_stats gw in
    let p q =
      match Obs.Histogram.snapshot reg "gateway.latency_s" with
      | Some snap -> Obs.Histogram.quantile snap q
      | None -> 0.
    in
    Buffer.add_string traj
      (Printf.sprintf
         {|{"t":%.6f,"sent":%d,"delivered":%d,"shed":%d,"pending":%d,"cache":%d,"p50":%.6f,"p99":%.6f,"final":%b}|}
         (elapsed ()) !sent s.Gateway.delivered (Gateway.shed_total s)
         (Gateway.pending_depth gw) c.Gateway.Plan_cache.entries (p 0.50)
         (p 0.99) final);
    Buffer.add_char traj '\n'
  in
  let sample_gap = cfg.g_duration_s /. float_of_int cfg.g_samples in
  schedule_chain (fun () -> sample_gap) (fun () -> sample ~final:false ());

  let scrapes = Buffer.create 256 in
  let scrape_n = ref 0 in
  let scrape () =
    incr scrape_n;
    scrape_append scrapes ~n:!scrape_n ~t:(elapsed ()) reg
  in
  if cfg.g_scrape_every_s > 0. then
    schedule_chain (fun () -> cfg.g_scrape_every_s) (fun () -> scrape ());

  let res = Netsim.run ~max_steps:1_000_000_000 net in
  sample ~final:true ();
  if cfg.g_scrape_every_s > 0. then scrape ();

  {
    g_config = cfg;
    g_sent = !sent;
    g_pushes = !pushes;
    g_joins = !joins;
    g_leaves = !leaves;
    g_active_end = !n_active;
    g_stats = Gateway.stats gw;
    g_cache = Gateway.cache_stats gw;
    g_breakers_open_end = Gateway.breakers_open gw;
    g_latency = Obs.Histogram.snapshot reg "gateway.latency_s";
    g_sim_end = elapsed ();
    g_quiesced = res.Netsim.quiesced;
    g_trajectory = Buffer.contents traj;
    g_scrape = Buffer.contents scrapes;
    g_metrics = reg;
    g_flight = flight;
  }

let gateway_percentile (r : gateway_report) q =
  match r.g_latency with Some s -> Obs.Histogram.quantile s q | None -> 0.

let gateway_summary (r : gateway_report) : string =
  let cfg = r.g_config in
  let g = cfg.g_gateway in
  let s = r.g_stats in
  let c = r.g_cache in
  let b = Buffer.create 512 in
  let p fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let f = cfg.g_faults in
  p "gateway v1";
  p "tenants=%d lineages=%d seed=%d dist=%s duration=%.3fs churn=%g/s versions=%d"
    cfg.g_tenants cfg.g_lineages cfg.g_seed (Dist.to_string cfg.g_dist)
    cfg.g_duration_s cfg.g_churn_per_s cfg.g_versions;
  p "storms=%d deadline=%gs" (List.length cfg.g_push_at) cfg.g_deadline_s;
  p "gateway max_plans=%d quota=%d admit=%g/s burst=%g parity=%b"
    g.Gateway.max_plans g.Gateway.tenant_quota g.Gateway.admit_rate
    g.Gateway.admit_burst g.Gateway.parity;
  p "faults loss=%.3f dup=%.3f reorder=%.3f jitter=%.4fs" f.Netsim.loss
    f.Netsim.duplication f.Netsim.reorder f.Netsim.jitter_s;
  p "sent=%d pushes=%d onboarded=%d churn joins=%d leaves=%d active_end=%d"
    r.g_sent r.g_pushes s.Gateway.onboarded r.g_joins r.g_leaves r.g_active_end;
  p "admitted=%d delivered=%d fused=%d staged=%d" s.Gateway.admitted
    s.Gateway.delivered s.Gateway.delivered_fused s.Gateway.delivered_staged;
  p "shed total=%d deadline=%d quota=%d breaker=%d overload=%d unknown=%d \
     no_meta=%d"
    (Gateway.shed_total s) s.Gateway.shed_deadline s.Gateway.shed_quota
    s.Gateway.shed_breaker s.Gateway.shed_overload s.Gateway.shed_unknown
    s.Gateway.shed_no_meta;
  p "rejected=%d bad_frames=%d parity_mismatches=%d" s.Gateway.rejected
    s.Gateway.bad_frames s.Gateway.parity_mismatches;
  p "plans compiles=%d recompiles=%d coalesced=%d shared=%d" s.Gateway.plan_compiles
    s.Gateway.plan_recompiles s.Gateway.singleflight_coalesced s.Gateway.plan_shared;
  p "cache entries=%d high_water=%d hits=%d misses=%d evictions=%d \
     quota_evictions=%d"
    c.Gateway.Plan_cache.entries c.Gateway.Plan_cache.high_water
    c.Gateway.Plan_cache.hits
    c.Gateway.Plan_cache.misses c.Gateway.Plan_cache.evictions
    c.Gateway.Plan_cache.quota_evictions;
  p "breakers trips=%d recoveries=%d open_end=%d" s.Gateway.breaker_trips
    s.Gateway.breaker_recoveries r.g_breakers_open_end;
  (match r.g_latency with
   | Some snap ->
     p "latency p50=%.6fs p99=%.6fs p999=%.6fs max=%.6fs n=%d"
       (Obs.Histogram.quantile snap 0.50)
       (Obs.Histogram.quantile snap 0.99)
       (Obs.Histogram.quantile snap 0.999)
       snap.Obs.Histogram.max snap.Obs.Histogram.count
   | None -> p "latency n=0");
  p "sim_end=%.6fs quiesced=%b" r.g_sim_end r.g_quiesced;
  Buffer.contents b
