(* Line-level readers for BENCHMARK.json and the result files.  The repo
   has no JSON dependency; both files are written one object per line,
   and these readers rely on that layout. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let lines path = String.split_on_char '\n' (read_file path)

let find_from s i sub =
  let n = String.length s and k = String.length sub in
  let rec go i = if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1) in
  go i

let contains s sub = Option.is_some (find_from s 0 sub)

(* ["key": "value"] or ["key":"value"] *)
let string_field line key =
  let marker = Printf.sprintf "\"%s\":" key in
  match find_from line 0 marker with
  | None -> None
  | Some i ->
    (match String.index_from_opt line (i + String.length marker) '"' with
     | None -> None
     | Some start ->
       String.index_from_opt line (start + 1) '"'
       |> Option.map (fun stop -> String.sub line (start + 1) (stop - start - 1)))

let number_field line key =
  let marker = Printf.sprintf "\"%s\":" key in
  match find_from line 0 marker with
  | None -> None
  | Some i ->
    let start = ref (i + String.length marker) in
    while !start < String.length line && line.[!start] = ' ' do incr start done;
    let stop = ref !start in
    while
      !stop < String.length line
      && (match line.[!stop] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub line !start (!stop - !start))

(* --- BENCHMARK.json ------------------------------------------------------ *)

type declared = {
  d_name : string;
  d_unit : string;
  d_better : string;
  d_bound : float option;  (** end-to-end metrics only *)
}

type benchmark = {
  workloads : string list;
  end_to_end : declared list;
  per_layer : declared list;
}

let read_benchmark path : benchmark =
  let section = ref "" in
  let workloads = ref [] and e2e = ref [] and layers = ref [] in
  List.iter
    (fun line ->
       List.iter
         (fun s -> if contains line (Printf.sprintf "\"%s\": [" s) then section := s)
         [ "workloads"; "end_to_end"; "per_layer"; "command"; "paths" ];
       match string_field line "name" with
       | None -> ()
       | Some name ->
         let d () =
           {
             d_name = name;
             d_unit = Option.value ~default:"" (string_field line "unit");
             d_better = Option.value ~default:"" (string_field line "better");
             d_bound = number_field line "bound";
           }
         in
         (match !section with
          | "workloads" -> workloads := name :: !workloads
          | "end_to_end" -> e2e := d () :: !e2e
          | "per_layer" -> layers := d () :: !layers
          | _ -> ()))
    (lines path);
  {
    workloads = List.rev !workloads;
    end_to_end = List.rev !e2e;
    per_layer = List.rev !layers;
  }

(* --- result files -------------------------------------------------------- *)

type run = {
  seed : float option;
  values : ((string * string) * float) list;  (** (workload, metric) -> value *)
  digests : (string * string) list;  (** workload -> outcome digest *)
  failed : (string * float) list;  (** workload -> failed count *)
}

let read_result path : run =
  List.fold_left
    (fun r line ->
       match string_field line "workload" with
       | None when contains line "\"descriptor\":" -> { r with seed = number_field line "seed" }
       | None -> r
       | Some w ->
         (match string_field line "metric", number_field line "value" with
          | Some metric, Some v -> { r with values = ((w, metric), v) :: r.values }
          | _ ->
            {
              r with
              digests =
                (match string_field line "digest" with
                 | Some d -> (w, d) :: r.digests
                 | None -> r.digests);
              failed =
                (match number_field line "failed" with
                 | Some f -> (w, f) :: r.failed
                 | None -> r.failed);
            }))
    { seed = None; values = []; digests = []; failed = [] }
    (lines path)
