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

(* --- source hostility ------------------------------------------------------

   Ecode snippets travel in sender meta-data, so the lexer and parser see
   whatever a sender writes.  This mutator splices a hostile fragment in
   between two tokens, where the front end must meet it. *)

(* Literals the lexer cannot read as their type (past [max_int], an
   exponent with no digits) or reads at an edge ([max_int], infinity,
   zero), a long identifier, unbalanced brackets, and an unterminated
   string, character or comment. *)
let hostile_fragments =
  [ "99999999999999999999"; "4611686018427387904"; "4611686018427387903"; "1.5e"; "1e+"; "2E-";
    "1e99999"; "5e-400"; String.make 300 'z'; "(("; ")"; "[["; "]]"; "{"; "}}"; "\"open"; "'";
    "/*" ]

let is_separator = function
  | ' ' | '\t' | '\n' | '\r' | ';' | ',' | '(' | ')' | '{' | '}' | '[' | ']' | '=' | '+' | '-'
  | '*' | '/' | '%' | '<' | '>' | '!' | '?' | ':' | '.' | '&' | '|' | '^' | '~' ->
    true
  | _ -> false

(* [s] with a hostile fragment at a token boundary (the start, the end,
   or next to whitespace or punctuation), as a statement of its own after
   a [;] or a [}], or as the first operand of an assignment's value. *)
let splice_hostile (s : string) : string t =
  let n = String.length s in
  let at p = List.filter p (List.init (n + 1) Fun.id) in
  let between = at (fun i -> i = 0 || i = n || is_separator s.[i - 1] || is_separator s.[i]) in
  let statement = at (fun i -> i = 0 || s.[i - 1] = ';' || s.[i - 1] = '}') in
  let operand = at (fun i -> i >= 3 && String.sub s (i - 3) 3 = " = ") in
  let* frag = oneofl hostile_fragments in
  let* spots, frag =
    oneofl
      ([ (between, frag); (statement, "\n" ^ frag ^ ";") ]
       @ if operand = [] then [] else [ (operand, frag ^ " + ") ])
  in
  let* i = oneofl spots in
  return (String.sub s 0 i ^ frag ^ String.sub s i (n - i))
