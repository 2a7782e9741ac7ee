(* Differential oracle for domain-sharded delivery: every scenario is run
   once single-domain (no pool — the exact legacy code path) and once
   across an N-domain pool, and the two runs must produce the same digest:
   payload bytes / delivered values, per-sink outcome sequences, and the
   merged counter totals of the per-shard Obs registries.

   Determinism discipline (docs/CONCURRENCY.md): the logical shard count
   is fixed (independent of the pool width), each shard's mutable state is
   touched by exactly one domain per batch, registries get a fake
   monotone-counter clock, and the shared [Ctx.t] carries [Obs.null] so
   cache-hit counters — the one thing that legitimately varies with
   domain interleaving — never enter a digest. *)

open Pbio

let nshards = 4
let nmessages = 6

(* Per-registry fake clock: monotone counter, deterministic as long as the
   registry's clock-read sequence is (each registry is single-shard). *)
let fixed_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 1.;
    !t

let make_registry label =
  let reg = Obs.create ~label () in
  Obs.set_registry_clock reg (fixed_clock ());
  reg

let show_outcome o = Fmt.str "%a" Morph.Receiver.pp_outcome o

(* The comparable trace of one run: one line per shard (outcomes plus the
   values its handler saw, in order) and the merged-registry JSON dump. *)
let digest_lines (per_shard : string list) (regs : Obs.t list) : string =
  String.concat "\n" per_shard
  ^ "\n--- merged registries ---\n"
  ^ Obs.to_json_lines (Obs.merged ~label:"merged" regs)

(* --- scenario: ECho fan-out ----------------------------------------------- *)

(* One meta + message batch delivered to [nshards] sinks through
   [Echo.Fanout.deliver_batch]; sinks shard across the pool. *)
let fanout_case ~(pool : Morph.Pool.t option) st =
  let base = Gen.record st in
  let target = Oracle.structural_variant base st in
  let meta = Meta.plain base in
  let messages =
    Array.init nmessages (fun i ->
        Wire.encode ~format_id:i base (Gen.value_for base st))
  in
  let run (pool : Morph.Pool.t option) : string =
    let ctx = Ctx.create () in
    let regs = ref [] in
    let seen = Array.make nshards [] in
    let sinks =
      Array.init nshards (fun i ->
          let reg = make_registry (Fmt.str "sink%d" i) in
          regs := reg :: !regs;
          let recv =
            Morph.Receiver.create
              ~config:(Morph.Receiver.Config.v ~metrics:reg ~ctx ()) ()
          in
          Morph.Receiver.register recv target (fun v ->
              seen.(i) <- Value.to_string v :: seen.(i));
          Echo.Fanout.sink ~name:(Fmt.str "sink%d" i) recv)
    in
    let outcomes = Echo.Fanout.deliver_batch ?pool ~sinks meta messages in
    let per_shard =
      List.init nshards (fun i ->
          Fmt.str "sink%d: [%s] saw [%s]" i
            (String.concat "; "
               (Array.to_list (Array.map show_outcome outcomes.(i))))
            (String.concat "; " (List.rev seen.(i))))
    in
    digest_lines per_shard (List.rev !regs)
  in
  let base_run = run None in
  let par_run = run pool in
  if not (String.equal base_run par_run) then
    Oracle.fail
      "echo fan-out diverges across domains:@ --- single ---@ %s@ --- sharded ---@ %s"
      base_run par_run

(* --- scenario: B2B-style shard delivery ----------------------------------- *)

(* A chain-morphing receiver per shard (the Morph_at_receiver half of the
   B2B study, minus the simulated network, which is single-domain by
   design); shard [k] owns messages [i mod nshards = k], in order. *)
let b2b_case ~(pool : Morph.Pool.t option) st =
  let base = Gen.record st in
  let chain = Evolve.chain ~max_steps:2 base st in
  let meta = Evolve.meta_of_chain chain in
  let hd = Evolve.head chain in
  let messages =
    Array.init nmessages (fun i ->
        Wire.encode ~format_id:i hd (Gen.value_for hd st))
  in
  let run (pool : Morph.Pool.t option) : string =
    let ctx = Ctx.create () in
    let shards =
      Array.init nshards (fun k ->
          let reg = make_registry (Fmt.str "shard%d" k) in
          let seen = ref [] in
          let recv =
            Morph.Receiver.create
              ~config:(Morph.Receiver.Config.v ~metrics:reg ~ctx ()) ()
          in
          Morph.Receiver.register recv chain.Evolve.base (fun v ->
              seen := Value.to_string v :: !seen);
          (k, reg, seen, recv))
    in
    let deliver_shard (k, _reg, seen, recv) =
      let outs = ref [] in
      let i = ref k in
      while !i < nmessages do
        outs := show_outcome (Morph.Receiver.deliver_wire recv meta messages.(!i)) :: !outs;
        i := !i + nshards
      done;
      Fmt.str "shard%d: [%s] saw [%s]" k
        (String.concat "; " (List.rev !outs))
        (String.concat "; " (List.rev !seen))
    in
    let lines =
      match pool with
      | None -> Array.map deliver_shard shards
      | Some p -> Morph.Pool.map p deliver_shard shards
    in
    digest_lines (Array.to_list lines)
      (Array.to_list (Array.map (fun (_, reg, _, _) -> reg) shards))
  in
  let base_run = run None in
  let par_run = run pool in
  if not (String.equal base_run par_run) then
    Oracle.fail
      "b2b shard delivery diverges across domains:@ --- single ---@ %s@ --- sharded ---@ %s"
      base_run par_run

(* --- scenario: gateway-style tenant shards -------------------------------- *)

(* Broker fan-out shape: every tenant shard receives the same message
   stream and morphs it into its own target format, all shards pulling
   fused plans from one shared codec cache — the contention case its
   lock and one-slot memos exist for. *)
let gateway_case ~(pool : Morph.Pool.t option) st =
  let source = Gen.record st in
  let endian = if Rgen.bool st then Codec.Little else Codec.Big in
  let targets = Array.init nshards (fun _ -> Oracle.structural_variant source st) in
  let messages =
    Array.init nmessages (fun i ->
        Wire.encode ~endian ~format_id:i source (Gen.value_for source st))
  in
  let run (pool : Morph.Pool.t option) : string =
    let ctx = Ctx.create () in
    let cache = Ctx.codecs ctx in
    let regs = Array.init nshards (fun k -> make_registry (Fmt.str "tenant%d" k)) in
    let deliver_tenant k =
      let delivered = Obs.Counter.make regs.(k) "gateway.delivered" in
      let outs =
        Array.map
          (fun msg ->
             let mor =
               Codec.morpher_in cache ~endian ~from_:source ~into:targets.(k)
             in
             match Codec.morph_payload mor ~pos:Codec.header_size msg with
             | v ->
               Obs.Counter.incr delivered;
               Value.to_string v
             | exception Codec.Decode_error m -> "decode error: " ^ m)
          messages
      in
      Fmt.str "tenant%d: [%s]" k (String.concat "; " (Array.to_list outs))
    in
    let lines =
      match pool with
      | None -> Array.init nshards deliver_tenant
      | Some p -> Morph.Pool.map p deliver_tenant (Array.init nshards Fun.id)
    in
    digest_lines (Array.to_list lines) (Array.to_list regs)
  in
  let base_run = run None in
  let par_run = run pool in
  if not (String.equal base_run par_run) then
    Oracle.fail
      "gateway tenant shards diverge across domains:@ --- single ---@ %s@ --- sharded ---@ %s"
      base_run par_run

(* --- campaign -------------------------------------------------------------- *)

let scenarios : (string * (pool:Morph.Pool.t option -> Random.State.t -> unit)) list =
  [
    ("par-echo", fanout_case);
    ("par-b2b", b2b_case);
    ("par-gateway", gateway_case);
  ]

let names = List.map fst scenarios

let run ?names:(selected = names) ~seed ~count ~domains () : Oracle.report list =
  if domains < 1 then invalid_arg "Parallel_oracle.run: domains must be >= 1";
  Morph.Pool.with_pool ~domains (fun p ->
      let pool = if Morph.Pool.width p = 1 then None else Some p in
      List.map
        (fun name ->
           match List.assoc_opt name scenarios with
           | None -> invalid_arg ("Parallel_oracle.run: unknown scenario " ^ name)
           | Some case ->
             Oracle.run_cases ~oracle:name ~seed ~count (case ~pool))
        selected)
