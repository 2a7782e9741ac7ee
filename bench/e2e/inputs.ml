(* Seeded inputs for the six workloads.

   Everything the program under test sees is generated here, from the
   seed, before any timing: wire messages, frames and the per-operation
   pick sequences.  The seed varies the inputs but not the work they
   cost: message sizes and lineage shapes are the same for every seed
   and picks are balanced, because the cost of a message, and even which
   GC mode a percentile lands in, follows its size. *)

open Pbio
module WF = Echo.Wire_formats
module Population = Loadgen.Population

let rng seed salt = Random.State.make [| 0x6d62; seed; salt |]

(* One byte per operation: every pick space here has at most 256 items. *)
let picks ~n (draw : unit -> int) : Bytes.t =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (draw ()))
  done;
  b

let pick b i = Char.code (Bytes.unsafe_get b i)

let data_frame ~format_id message =
  Transport.Framing.encode (Transport.Framing.Data { format_id; message })

(* --- ChannelOpenResponse (the paper's Section 4 message) --------------- *)

(* Receiver targets next to the paper's v1.0: the header-only shape drops
   the whole member list (every byte skipped), the trimmed v2 keeps it
   (every byte materialised).  Both resolve to a pure structural
   conversion, so deliveries fuse. *)
let channel_header : Ptype.record =
  Ptype.record "ChannelOpenResponse"
    [ Ptype.field "channel" Ptype.string_; Ptype.field "member_count" Ptype.int_ ]

let channel_trim : Ptype.record =
  Ptype.record "ChannelOpenResponse"
    [
      Ptype.field "channel" Ptype.string_;
      Ptype.field "member_count" Ptype.int_;
      Ptype.field "member_list"
        (Ptype.array_var "member_count" (Ptype.Record WF.member_v1));
    ]

let channel_messages = 64

(* About 9.2 KB on the wire.  Every message has the same member count and
   fixed-width member fields, so every seed allocates the same amount in
   the same sizes: a seed-dependent size mix moved the GC pacing enough
   to flip channel-keep's p50 between its with- and without-slice modes
   (27 vs 55 us). *)
let channel_members = WF.members_for_unencoded_bytes 10_000

type channel = {
  c_frames : string array;  (** framed v2.0 messages *)
  c_picks : Bytes.t;  (** message index per operation *)
}

let channel_value st ~channel n =
  WF.response_v2_value ~channel
    (List.init n (fun i ->
         WF.member_v2_value
           ~host:(Printf.sprintf "node%04d.cc.gatech.edu" (Random.State.int st 10_000))
           ~port:(7000 + Random.State.int st 1000)
           ~id:i ~is_source:true ~is_sink:true))

(* Each round of [channel_messages] operations is a seeded permutation, so
   every message is used equally often whatever the seed. *)
let balanced_picks st ~n ~items =
  let perm = Array.init items Fun.id in
  let round = ref items in
  picks ~n (fun () ->
      if !round = items then begin
        for i = items - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let x = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- x
        done;
        round := 0
      end;
      let x = perm.(!round) in
      incr round;
      x)

let channel ~seed ~n : channel =
  let st = rng seed 2 in
  let channel = Printf.sprintf "chan-%08x" (Random.State.bits st) in
  let c_frames =
    Array.init channel_messages (fun i ->
        data_frame ~format_id:0
          (Wire.encode ~format_id:i WF.channel_open_response_v2
             (channel_value st ~channel channel_members)))
  in
  { c_frames; c_picks = balanced_picks (rng seed 3) ~n ~items:channel_messages }

(* --- loadgen lineages ---------------------------------------------------- *)

(* Lineage shapes are fixed, not drawn from the run seed: which evolution
   steps a lineage takes moves the cost of a message by +-20% (meta size,
   chain hops, field types), which would swamp every bound across seeds.
   The run seed drives the traffic over them. *)
let lineage_seed = 42

type lineage = {
  l_pop : Population.t;
  l_frames : string array;  (** one framed message per version; format_id = version *)
  l_picks : Bytes.t;  (** version per operation, drawn from the population mix *)
}

let lineage ~seed ~n : lineage =
  let l_pop = Population.make ~versions:4 ~seed:lineage_seed () in
  let st = rng seed 4 in
  {
    l_pop;
    l_frames =
      Array.map
        (fun (v : Population.version) ->
           data_frame ~format_id:v.Population.index v.Population.bytes)
        (Population.versions l_pop);
    l_picks = picks ~n (fun () -> Population.pick l_pop st);
  }

(* --- gateway tenants ----------------------------------------------------- *)

let tenants = 200
let gateway_lineages = 8
let gateway_versions = 6

(* Every [storm_every] messages every tenant moves one version forward and
   re-pushes its meta-data. *)
let storm_every = 20_000

type gateway = {
  g_pops : Population.t array;  (** lineage k; tenant i uses lineage i mod 8 *)
  g_data : string array array;  (** [tenant].(version): Described data frame *)
  g_meta : string array array;  (** [tenant].(version): Described meta push *)
  g_picks : Bytes.t;  (** tenant per operation *)
}

let gateway ~seed ~n : gateway =
  let g_pops =
    Array.init gateway_lineages (fun k ->
        Population.make ~versions:gateway_versions ~seed:(lineage_seed + (7919 * k)) ())
  in
  let frame tenant f =
    Array.map
      (fun (v : Population.version) ->
         let fingerprint = Gateway.fingerprint v.Population.meta in
         Transport.Framing.encode
           (Gateway.envelope ~tenant ~fingerprint (f v)))
      (Population.versions g_pops.(tenant mod gateway_lineages))
  in
  let st = rng seed 5 in
  {
    g_pops;
    g_data =
      Array.init tenants (fun t ->
          frame t (fun v ->
              Transport.Framing.Data
                { format_id = v.Population.index; message = v.Population.bytes }));
    g_meta =
      Array.init tenants (fun t ->
          frame t (fun v ->
              Transport.Framing.Meta
                { format_id = v.Population.index; meta = Meta.encode v.Population.meta }));
    g_picks = picks ~n (fun () -> Random.State.int st tenants);
  }

(* Version every tenant is at when operation [i] is sent. *)
let gateway_version i = i / storm_every mod gateway_versions
