(* Log-linear histogram of non-negative integer samples (nanoseconds).

   Values below 2^(sub_bits+1) get one bucket each; above that, every
   power-of-two range [2^k, 2^(k+1)) is split into 2^sub_bits equal
   buckets, each at most 1/2^sub_bits of its lower bound wide: any point
   in a bucket is within 0.8% of every sample in it at sub_bits = 7,
   inside the 1% the benchmark promises.
   Recording is integer-only and allocation-free, so the harness can
   record inside a timed window without perturbing the GC. *)

let sub_bits = 7
let sub = 1 lsl sub_bits

(* 62-bit OCaml ints: at most 63 - sub_bits octaves above the exact range *)
let nbuckets = (64 - sub_bits) * sub

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make nbuckets 0; n = 0 }

(* shift s such that x lsr s lands in [sub, 2 * sub) *)
let rec shift_for x s = if x < 2 * sub then s else shift_for (x lsr 1) (s + 1)

let index x =
  if x < 2 * sub then if x < 0 then 0 else x
  else
    let s = shift_for x 0 in
    ((s + 1) * sub) + ((x lsr s) - sub)

let record t x =
  let i = index x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

(* Bucket [i] holds the samples in [lo, lo + width). *)
let bounds i =
  if i < 2 * sub then (float_of_int i, 1.)
  else
    let s = (i / sub) - 1 in
    let m = sub + (i mod sub) in
    (float_of_int (m lsl s), float_of_int (1 lsl s))

(* Add every sample of [src] to [dst], multiplied by [f].  A sample moves
   with its bucket's midpoint, so it lands within a bucket's width of
   where its own value would. *)
let add_scaled dst ~f src =
  Array.iteri
    (fun i c ->
       if c > 0 then begin
         let lo, width = bounds i in
         let j = index (int_of_float ((lo +. (width /. 2.)) *. f)) in
         dst.counts.(j) <- dst.counts.(j) + c
       end)
    src.counts;
  dst.n <- dst.n + src.n

(* Sample of rank ceil(q * n), 1-based, placed inside its bucket by its
   rank among the bucket's samples (so a tight distribution does not read
   back the same bucket value on every run); 0. when empty. *)
let quantile t q =
  if t.n = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let rec go i before =
      let c = t.counts.(i) in
      if before + c >= rank || i = nbuckets - 1 then begin
        let lo, width = bounds i in
        lo +. (width *. (float_of_int (rank - before) -. 0.5) /. float_of_int (max 1 c))
      end
      else go (i + 1) (before + c)
    in
    go 0 0
  end
