(* Weighted sender-version populations over Morphcheck.Evolve lineages. *)

open Pbio
module Evolve = Morphcheck.Evolve

type version = {
  index : int;
  format : Ptype.record;
  meta : Meta.format_meta;
  bytes : string;
  weight : float;
}

type t = {
  versions : version array;
  cum : float array; (* cumulative weights, last entry 1.0 *)
}

(* Every population's v0. *)
let base_format =
  Ptype_dsl.format_of_string_exn
    "format LoadEvent { int kind; string tag; int count; float gauge; }"

(* Evolve.chain draws its hop count uniformly in [1, max_steps]; redraw
   (same deterministic stream) until the lineage has exactly the hops we
   asked for, so "--versions 4" always means v0..v3. *)
let lineage_steps base ~hops rng =
  if hops = 0 then []
  else begin
    let rec gen tries =
      let c = Evolve.chain ~max_steps:hops base rng in
      if List.length c.Evolve.steps = hops || tries = 0 then c
      else gen (tries - 1)
    in
    (gen 64).Evolve.steps
  end

let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] l

let default_weights n =
  let w = Array.make n 0. in
  if n = 1 then w.(0) <- 1.
  else begin
    w.(n - 1) <- 70.;
    w.(n - 2) <- 25.;
    let stragglers = n - 2 in
    if stragglers > 0 then
      for i = 0 to stragglers - 1 do
        w.(i) <- 5. /. float_of_int stragglers
      done
  end;
  w

let make ?mix ~versions:n ~seed () : t =
  if n < 1 then invalid_arg "Population.make: versions must be >= 1";
  let base = base_format in
  let rng = Random.State.make [| 0x10adc3; seed |] in
  let steps = lineage_steps base ~hops:(n - 1) rng in
  let weights =
    match mix with
    | None -> default_weights n
    | Some l ->
      let w = Array.make n 0. in
      List.iteri
        (fun j x ->
           if x < 0. then invalid_arg "Population.make: negative weight";
           let idx = n - 1 - j in
           if idx >= 0 then w.(idx) <- x)
        l;
      w
  in
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Population.make: no positive weight";
  let versions =
    Array.init n (fun i ->
        let prefix = { Evolve.base; steps = take i steps } in
        let format = Evolve.head prefix in
        let meta =
          if i = 0 then Meta.plain base else Evolve.meta_of_chain prefix
        in
        let value =
          Morphcheck.Gen.value_for format
            (Random.State.make [| 0x10adc3; seed; 1 + i |])
        in
        let bytes = Wire.encode ~format_id:i format value in
        { index = i; format; meta; bytes; weight = weights.(i) /. total })
  in
  let cum = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i v ->
       acc := !acc +. v.weight;
       cum.(i) <- !acc)
    versions;
  cum.(n - 1) <- 1.0;
  { versions; cum }

let versions t = t.versions
let base t = t.versions.(0).format

let pick t st =
  let u = Random.State.float st 1.0 in
  let n = Array.length t.cum in
  let rec go i = if i >= n - 1 || u < t.cum.(i) then i else go (i + 1) in
  go 0

let describe_mix t =
  Array.to_list t.versions
  |> List.map (fun v -> Printf.sprintf "v%d:%.1f%%" v.index (100. *. v.weight))
  |> String.concat " "
