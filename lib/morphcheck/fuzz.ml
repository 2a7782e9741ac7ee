(* Byte-level corruption of encoded buffers, for fuzzing decoders.

   The mutations model what a hostile or broken peer can put on a link:
   flipped bits, overwritten bytes, truncation, inserted or deleted chunks,
   zeroed runs, and outright garbage.  Decoders are expected to turn every
   one of these into a structured [Error] — never an escaping exception. *)

open Rgen

let random_bytes (len : int t) : string t =
  string_size ~gen:(map Char.chr (int_range 0 255)) len

(* One mutation applied to [s]. *)
let mutate_once (s : string) : string t =
  let n = String.length s in
  let b () = Bytes.of_string s in
  let ops =
    (* always applicable *)
    [ (2, let* extra = random_bytes (int_range 1 8) in
          let* front = bool in
          return (if front then extra ^ s else s ^ extra));
      (1, random_bytes (int_range 0 (n + 8))) ]
    @
    (if n = 0 then []
     else
       [ (4, let* i = int_range 0 (n - 1) in
             let* bit = int_range 0 7 in
             let by = b () in
             Bytes.set by i (Char.chr (Char.code (Bytes.get by i) lxor (1 lsl bit)));
             return (Bytes.to_string by));
         (3, let* i = int_range 0 (n - 1) in
             let* c = int_range 0 255 in
             let by = b () in
             Bytes.set by i (Char.chr c);
             return (Bytes.to_string by));
         (3, let* k = int_range 0 (n - 1) in
             return (String.sub s 0 k));
         (2, let* i = int_range 0 (n - 1) in
             let* k = int_range 1 (n - i) in
             return (String.sub s 0 i ^ String.sub s (i + k) (n - i - k)));
         (2, let* i = int_range 0 (n - 1) in
             let* k = int_range 1 (min 4 (n - i)) in
             let by = b () in
             Bytes.fill by i k '\x00';
             return (Bytes.to_string by)) ])
  in
  let* op = frequencyl (List.map (fun (w, g) -> (w, g)) ops) in
  op

(* 1-3 stacked mutations. *)
let mutate (s : string) : string t =
  let* rounds = frequencyl [ (5, 1); (3, 2); (2, 3) ] in
  let rec go k acc = if k = 0 then return acc else let* acc = mutate_once acc in go (k - 1) acc in
  go rounds s

(* --- extent hostility ------------------------------------------------------

   Compiled plans skip dropped fields by extent, merging runs of
   fixed-width fields into one bounds check; these mutators aim at those
   seams rather than the byte content. *)

(* A hostile (pos, len) window over an [n]-byte buffer, always in
   bounds: the exact buffer, off-by-one at either end, truncation that
   lands inside a trailing (typically skipped) span, or an empty
   window. *)
let sub_extent (n : int) : (int * int) t =
  let* g =
    frequencyl
      [ (3, return (0, n));
        (3, let* k = int_range 1 (max 1 (min 8 n)) in
            return (0, max 0 (n - k)));
        (2, let* k = int_range 1 (max 1 (min 4 n)) in
            let k = min k n in
            return (k, n - k));
        (1, return (0, max 0 (n - 1)));
        (1, let* p = int_range 0 n in return (p, 0)) ]
  in
  g

(* Overwrite one 32-bit slot with an inflated (or zeroed) count, so any
   length reference decoded from it describes a span that overlaps its
   neighbours or overruns the buffer. *)
let inflate_slot (s : string) : string t =
  let n = String.length s in
  if n < 4 then return s
  else
    let* i = int_range 0 (n - 4) in
    let* vg =
      frequencyl
        [ (3, int_range (n / 4) (2 * n));
          (2, return 0x7fffffff);
          (2, return (-1));
          (1, int_range 0 3) ]
    in
    let* v = vg in
    let by = Bytes.of_string s in
    Bytes.set_int32_le by i (Int32.of_int v);
    return (Bytes.to_string by)
