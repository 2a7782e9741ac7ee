(* morphbench compare A.json... -- B.json...

   For every end-to-end (workload, metric) in BENCHMARK.json: each set's
   median and quartiles, and a verdict against the metric's bound.  The
   verdict is unresolved when either set's spread (quartile distance over
   median) exceeds the bound, unless every run on one side beats every
   run on the other.  Outcome digests and failure counts must be
   identical across every run of both sets. *)

let median xs = Workload.median (Array.of_list xs)

(* Python's statistics.quantiles(xs, n=4), default 'exclusive' method. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort compare d;
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let spread xs =
  let q1, q3 = quartiles xs in
  let md = median xs in
  if md = 0. then 0. else (q3 -. q1) /. Float.abs md

type verdict = Better | Worse | Same | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Same -> "same"
  | Unresolved -> "unresolved"

(* Verdict for B against A. *)
let judge ~lower_is_better ~bound a b =
  let ma = median a and mb = median b in
  let worse_by =
    let change = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
    if lower_is_better then change else -.change
  in
  let beats x y = if lower_is_better then x < y else x > y in
  let all_beat xs ys = List.for_all (fun x -> List.for_all (fun y -> beats x y) ys) xs in
  let dominance () =
    if all_beat b a then Some Better else if all_beat a b then Some Worse else None
  in
  if spread a > bound || spread b > bound then
    Option.value (dominance ()) ~default:Unresolved
  else if worse_by > bound then Worse
  else if worse_by < -.bound then Better
  else Same

let run ~benchmark ~a ~b =
  let bench = Schema.read_benchmark benchmark in
  let ra = List.map Schema.read_result a and rb = List.map Schema.read_result b in
  let ok = ref true in
  Printf.printf "%-14s %-20s %26s %26s %8s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "bound" "verdict";
  List.iter
    (fun w ->
       List.iter
         (fun (d : Schema.declared) ->
            let get rs = List.filter_map (fun (r : Schema.run) -> List.assoc_opt (w, d.Schema.d_name) r.Schema.values) rs in
            let va = get ra and vb = get rb in
            if va = [] || vb = [] then begin
              ok := false;
              Printf.printf "%-14s %-20s missing from %s\n" w d.Schema.d_name
                (if va = [] then "A" else "B")
            end
            else begin
              let bound = Option.value d.Schema.d_bound ~default:0. in
              let v =
                judge ~lower_is_better:(d.Schema.d_better = "lower") ~bound va vb
              in
              if v = Worse || v = Unresolved then ok := false;
              let show xs =
                let q1, q3 = quartiles xs in
                Printf.sprintf "%.4g [%.4g, %.4g]" (median xs) q1 q3
              in
              let ma = median va in
              Printf.printf "%-14s %-20s %26s %26s %+7.2f%% %5.1f%%  %s\n" w d.Schema.d_name
                (show va) (show vb)
                (if ma = 0. then 0. else 100. *. (median vb -. ma) /. Float.abs ma)
                (100. *. bound) (verdict_to_string v)
            end)
         bench.Schema.end_to_end)
    bench.Schema.workloads;
  (* outcomes are a pure function of the seed: runs of one seed must agree *)
  let runs = ra @ rb in
  let seeds = List.sort_uniq compare (List.map (fun (r : Schema.run) -> r.Schema.seed) runs) in
  List.iter
    (fun w ->
      List.iter (fun seed ->
       let distinct f =
         List.sort_uniq compare
           (List.filter_map
              (fun (r : Schema.run) -> if r.Schema.seed = seed then List.assoc_opt w (f r) else None)
              runs)
       in
       let digests = distinct (fun r -> r.Schema.digests) in
       let failed = distinct (fun r -> r.Schema.failed) in
       if List.length digests > 1 || List.length failed > 1 then begin
         ok := false;
         Printf.printf "%s: outcome digests or failure counts differ across runs:\n" w;
         List.iter (Printf.printf "  %s\n") digests
       end) seeds)
    bench.Schema.workloads;
  Printf.printf "%s: %d run(s) vs %d run(s)\n" (if !ok then "agree" else "DIFFER") (List.length a)
    (List.length b);
  if !ok then 0 else 1
