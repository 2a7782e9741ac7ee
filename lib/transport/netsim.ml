(* A deterministic discrete-event network simulator (DESIGN.md, substitution
   S3).  Message delivery costs a per-link latency plus a serialisation
   delay proportional to message size.  Time is simulated seconds.

   The network runs under one seeded probabilistic fault profile — frame
   loss, duplication, reordering and latency jitter — and node groups can
   be partitioned for a timed window of simulated time.  Each drop is
   accounted under its reason.  The same event queue also drives
   virtual-clock timers, which is what the connection layer's
   retransmission and backoff logic runs on. *)

type config = {
  latency_s : float;           (* one-way propagation delay *)
  bandwidth_bytes_per_s : float; (* serialisation rate; infinity = free *)
}

let default_config = { latency_s = 100e-6; bandwidth_bytes_per_s = 125_000_000. }
(* 100us / ~1 Gbit: the sort of LAN the paper's testbed used *)

(* The network's fault profile.  Probabilities are per frame; [jitter_s]
   adds a uniform extra delay in [0, jitter_s].  A reordered frame escapes
   the link's FIFO clamp and takes a random multiple of its nominal delay,
   so later frames can overtake it. *)
type faults = {
  loss : float;
  duplication : float;
  reorder : float;
  jitter_s : float;
}

let no_faults = { loss = 0.0; duplication = 0.0; reorder = 0.0; jitter_s = 0.0 }

type handler = src:Contact.t -> string -> unit

type node = { handler : handler }

type drop_reason =
  | Unknown_destination
  | Link_down       (* active partition *)
  | Injected_loss

type stats = {
  mutable messages : int;
  mutable bytes : int;
  mutable duplicated : int;
  mutable drops_unknown_dst : int;
  mutable drops_link_down : int;
  mutable drops_loss : int;
}

let dropped (s : stats) : int =
  s.drops_unknown_dst + s.drops_link_down + s.drops_loss

type partition = {
  group_a : Contact.t list;
  group_b : Contact.t list;
  start : float;
  stop : float;
}

type queued =
  | Frame of {
      dst : Contact.t;
      src : Contact.t;
      payload : string;
    }
  | Timer of (unit -> unit)

(* Handles into an optional Obs registry, mirroring [stats] so a shared
   registry aggregates across simulators and shows up in `morphctl stats`. *)
type metrics = {
  m_delivered : Obs.Counter.h;
  m_bytes : Obs.Counter.h;
  m_duplicated : Obs.Counter.h;
  m_drops_unknown_dst : Obs.Counter.h;
  m_drops_link_down : Obs.Counter.h;
  m_drops_loss : Obs.Counter.h;
  m_timers : Obs.Counter.h;
}

let make_metrics reg =
  (* per-reason drops are one labeled family so an exposition shows the
     breakdown as netsim_drops{reason="..."}; the three series handles
     are resolved once here, keeping the drop paths handle-speed *)
  let drops = Obs.Labeled.counter reg ~keys:[ "reason" ] "netsim.drops" in
  let drop_series reason = Obs.Labeled.counter_series drops [ reason ] in
  {
    m_delivered = Obs.Counter.make reg "netsim.delivered";
    m_bytes = Obs.Counter.make reg ~unit_:"bytes" "netsim.bytes";
    m_duplicated = Obs.Counter.make reg "netsim.duplicated";
    m_drops_unknown_dst = drop_series "unknown_dst";
    m_drops_link_down = drop_series "link_down";
    m_drops_loss = drop_series "loss";
    m_timers = Obs.Counter.make reg "netsim.timers_fired";
  }

type t = {
  config : config;
  m : metrics;
  mutable corrupt : (string -> string) option;
  (* fault injection: applied to every delivered payload when set *)
  mutable now : float;
  queue : queued Pqueue.t;
  nodes : (Contact.t, node) Hashtbl.t;
  last_arrival : (Contact.t * Contact.t, float) Hashtbl.t;
  (* links are FIFO, like the stream connections PBIO runs over: a message
     never overtakes an earlier one on the same (src, dst) link — unless the
     fault model explicitly reorders it *)
  mutable faults : faults;
  mutable partitions : partition list;
  rng : Random.State.t;
  stats : stats;
}

let create ?(config = default_config) ?(seed = 0) ?(metrics = Obs.null) () =
  {
    config;
    m = make_metrics metrics;
    corrupt = None;
    now = 0.0;
    queue = Pqueue.create ();
    nodes = Hashtbl.create 16;
    last_arrival = Hashtbl.create 16;
    faults = no_faults;
    partitions = [];
    rng = Random.State.make [| 0x6e65747369; seed |];
    stats =
      {
        messages = 0;
        bytes = 0;
        duplicated = 0;
        drops_unknown_dst = 0;
        drops_link_down = 0;
        drops_loss = 0;
      };
  }

let now t = t.now
let stats t = t.stats

(* Install (or clear) a payload-corruption fault: every subsequent delivery
   passes through [f] first. *)
let set_corruption t f = t.corrupt <- f

let set_faults t faults = t.faults <- faults

exception Duplicate_node of Contact.t

let add_node t (contact : Contact.t) (handler : handler) : unit =
  if Hashtbl.mem t.nodes contact then raise (Duplicate_node contact);
  Hashtbl.replace t.nodes contact { handler }

(* Sever every link between the two groups during [start, stop) of simulated
   time; whether a frame crosses is decided at send time. *)
let add_partition t ~group_a ~group_b ~start ~stop =
  t.partitions <- { group_a; group_b; start; stop } :: t.partitions

let partitioned t ~src ~dst =
  let mem c l = List.exists (Contact.equal c) l in
  List.exists
    (fun p ->
       t.now >= p.start && t.now < p.stop
       && ((mem src p.group_a && mem dst p.group_b)
           || (mem src p.group_b && mem dst p.group_a)))
    t.partitions

(* --- the event queue ------------------------------------------------------- *)

let enqueue_frame t ~src ~dst ~(faults : faults) (payload : string) : float =
  let jitter =
    if faults.jitter_s > 0.0 then Random.State.float t.rng faults.jitter_s else 0.0
  in
  let delay =
    t.config.latency_s
    +. (float_of_int (String.length payload) /. t.config.bandwidth_bytes_per_s)
    +. jitter
  in
  let reordered = faults.reorder > 0.0 && Random.State.float t.rng 1.0 < faults.reorder in
  let arrival =
    if reordered then
      (* escape the FIFO clamp and linger, so later frames overtake *)
      t.now +. (delay *. (1.0 +. Random.State.float t.rng 3.0))
    else begin
      let earliest =
        Option.value ~default:0.0 (Hashtbl.find_opt t.last_arrival (src, dst))
      in
      let a = Float.max (t.now +. delay) earliest in
      Hashtbl.replace t.last_arrival (src, dst) a;
      a
    end
  in
  Pqueue.push t.queue arrival (Frame { dst; src; payload });
  arrival

(* Queue a message for delivery.  Unknown destinations, partitioned links
   and injected losses drop silently (like UDP), each counted under its
   reason.  Returns the scheduled
   arrival time of the (first copy of the) frame, or [None] when it was
   dropped — which is how the connection layer times its hop spans. *)
let send_arrival t ~(src : Contact.t) ~(dst : Contact.t) (payload : string) :
  float option =
  let drop reason =
    (match reason with
     | Unknown_destination ->
       t.stats.drops_unknown_dst <- t.stats.drops_unknown_dst + 1;
       Obs.Counter.incr t.m.m_drops_unknown_dst
     | Link_down ->
       t.stats.drops_link_down <- t.stats.drops_link_down + 1;
       Obs.Counter.incr t.m.m_drops_link_down
     | Injected_loss ->
       t.stats.drops_loss <- t.stats.drops_loss + 1;
       Obs.Counter.incr t.m.m_drops_loss);
    None
  in
  let faults = t.faults in
  if not (Hashtbl.mem t.nodes dst) then drop Unknown_destination
  else if partitioned t ~src ~dst then drop Link_down
  else if faults.loss > 0.0 && Random.State.float t.rng 1.0 < faults.loss then
    drop Injected_loss
  else begin
    let arrival = enqueue_frame t ~src ~dst ~faults payload in
    if faults.duplication > 0.0 && Random.State.float t.rng 1.0 < faults.duplication
    then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      Obs.Counter.incr t.m.m_duplicated;
      ignore (enqueue_frame t ~src ~dst ~faults payload : float)
    end;
    Some arrival
  end

let send t ~(src : Contact.t) ~(dst : Contact.t) (payload : string) : unit =
  ignore (send_arrival t ~src ~dst payload : float option)

(* Schedule [f] to run [delay] simulated seconds from now.  Timers share the
   event queue with frames, so [step]/[run]/[advance] drive them. *)
let after t (delay : float) (f : unit -> unit) : unit =
  Pqueue.push t.queue (t.now +. Float.max 0.0 delay) (Timer f)

(* Deliver the next pending message or fire the next timer; false when the
   queue is empty. *)
let step t : bool =
  match Pqueue.pop t.queue with
  | None -> false
  | Some (at, item) ->
    t.now <- Float.max t.now at;
    (match item with
     | Timer f ->
       Obs.Counter.incr t.m.m_timers;
       f ()
     | Frame ev ->
       (match Hashtbl.find_opt t.nodes ev.dst with
        | None ->
          t.stats.drops_unknown_dst <- t.stats.drops_unknown_dst + 1;
          Obs.Counter.incr t.m.m_drops_unknown_dst
        | Some node ->
          t.stats.messages <- t.stats.messages + 1;
          t.stats.bytes <- t.stats.bytes + String.length ev.payload;
          Obs.Counter.incr t.m.m_delivered;
          Obs.Counter.add t.m.m_bytes (String.length ev.payload);
          let payload =
            match t.corrupt with Some f -> f ev.payload | None -> ev.payload
          in
          node.handler ~src:ev.src payload));
    true

type run_result = {
  steps : int;
  quiesced : bool; (* false when the run stopped at [max_steps] *)
}

(* Run until quiescent (handlers may send more messages). *)
let run ?(max_steps = max_int) t : run_result =
  let rec go n =
    if n >= max_steps then { steps = n; quiesced = Pqueue.is_empty t.queue }
    else if step t then go (n + 1)
    else { steps = n; quiesced = true }
  in
  go 0

(* Process everything due within the next [dt] simulated seconds, then move
   the clock to exactly [now + dt].  Returns the number of events handled. *)
let advance t (dt : float) : int =
  let target = t.now +. Float.max 0.0 dt in
  let rec go n =
    match Pqueue.peek t.queue with
    | Some (at, _) when at <= target -> if step t then go (n + 1) else n
    | _ -> n
  in
  let n = go 0 in
  t.now <- Float.max t.now target;
  n
