(* Lists every [val] of lib/*/*.mli that no other source file uses, one
   per line as "file: Module.path.name", and exits 1 when it lists any.
   Then, under its own heading, it lists the vals whose only callers are
   under test/: the scan without test/ minus the scan with it.  Under a
   third heading it lists each optional parameter [?p:] of a val of
   lib/*/*.mli whose label, as [~p] or [?p], appears in no file outside
   test/ other than the module's own .ml and .mli.  Those two lists are
   for review and do not set the exit code.

   Usage, from the repository root: dune exec tools/unused_exports.exe

   The scan is lexical.  A [val v] in lib/x/m.mli, inside nested
   [module S : sig ... end] signatures, has the path [M; S...; v].  It
   counts as used when some .ml or .mli under lib, bin, bench, test or
   examples, other than m.ml and m.mli themselves,
   - names a dotted path that ends with [M.S....v], after the file's
     module aliases ([module A = P], [let module A = P in]) are expanded;
   - names [v] (or [S.v]) bare after opening or including [M]: [open],
     [open!], [let open ... in], [include] and [M.( ... )] all count, for
     the whole file;
   - or passes [M] to a functor, as in [Hashtbl.Make (M)], which uses all
     of [M]'s vals.
   Comments, strings and character literals are skipped.  Opens apply to
   the whole file and record fields look like values, so the scan may
   miss an unused export.  It may also list a used one whose use goes
   through a path it does not expand: an alias defined in another file,
   a functor parameter or a first-class module.

   Labels are matched by name alone, wherever they are passed: a
   parameter the scan lists has no caller outside test/ that names it,
   but one whose name some other function's label shares is never
   listed. *)

type token =
  | Path of string list  (** dotted identifiers: [A.B.c], [A.B], [c] *)
  | Local_open of string list  (** [A.B.(] *)
  | Sym of char
  | Label of char * string
      (** [~p] or [?p]; the name also follows as a [Path], for punning *)

let is_upper c = c >= 'A' && c <= 'Z'
let is_ident_start c = is_upper c || (c >= 'a' && c <= 'z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Skips a string literal whose opening quote is at [i]; returns the index
   just past its closing quote. *)
let rec skip_string s i =
  let n = String.length s in
  if i >= n then n
  else match s.[i] with
    | '"' -> i + 1
    | '\\' -> skip_string s (i + 2)
    | _ -> skip_string s (i + 1)

(* [{id|...|id}]: returns the index past the closing delimiter, or [None]
   when [i] does not start one. *)
let skip_quoted s i =
  let n = String.length s in
  let j = ref (i + 1) in
  while !j < n && (s.[!j] = '_' || (s.[!j] >= 'a' && s.[!j] <= 'z')) do incr j done;
  if !j < n && s.[!j] = '|' then begin
    let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
    let cl = String.length close in
    let k = ref (!j + 1) in
    while !k + cl <= n && String.sub s !k cl <> close do incr k done;
    Some (min n (!k + cl))
  end else None

let rec skip_comment s i depth =
  let n = String.length s in
  if i >= n then n
  else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
    skip_comment s (i + 2) (depth + 1)
  else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
    if depth = 1 then i + 2 else skip_comment s (i + 2) (depth - 1)
  else if s.[i] = '"' then skip_comment s (skip_string s (i + 1)) depth
  else skip_comment s (i + 1) depth

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let rec ident i =
    let j = ref i in
    while !j < n && is_ident_char s.[!j] do incr j done;
    (String.sub s i (!j - i), !j)
  and path i acc =
    let id, j = ident i in
    let acc = id :: acc in
    if is_upper id.[0] && j + 1 < n && s.[j] = '.' then
      if is_ident_start s.[j + 1] then path (j + 1) acc
      else if s.[j + 1] = '(' then (emit (Local_open (List.rev acc)); j + 2)
      else (emit (Path (List.rev acc)); j)
    else (emit (Path (List.rev acc)); j)
  in
  let rec go i =
    if i < n then
      let c = s.[i] in
      if c = '(' && i + 1 < n && s.[i + 1] = '*' then go (skip_comment s (i + 2) 1)
      else if c = '"' then go (skip_string s (i + 1))
      else if c = '{' then
        go (Option.value (skip_quoted s i) ~default:(i + 1))
      else if c = '\'' then
        if i + 1 < n && s.[i + 1] = '\\' then begin
          let j = ref (i + 2) in
          while !j < n && s.[!j] <> '\'' do incr j done;
          go (!j + 1)
        end
        else if i + 2 < n && s.[i + 2] = '\'' then go (i + 3)
        else go (i + 1)
      else if c >= '0' && c <= '9' then begin
        let j = ref i in
        while !j < n && (is_ident_char s.[!j] || s.[!j] = '.') do incr j done;
        go !j
      end
      else if is_ident_start c then go (path i [])
      else if (c = '~' || c = '?') && i + 1 < n && is_ident_start s.[i + 1]
              && not (is_upper s.[i + 1]) then begin
        emit (Label (c, fst (ident (i + 1))));
        go (i + 1)
      end
      else begin
        if c = '(' || c = ')' || c = '=' || c = ':' then emit (Sym c);
        go (i + 1)
      end
  in
  go 0;
  List.rev !toks

(* ---- exports ---- *)

let module_name file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* The optional parameters of a val whose type starts [toks]: every [?p]
   before the next signature item. *)
let rec optional_labels = function
  | Path [ ("val" | "external" | "type" | "module" | "end" | "exception"
           | "include" | "open" | "class") ] :: _
  | [] -> []
  | Label ('?', p) :: rest -> p :: optional_labels rest
  | _ :: rest -> optional_labels rest

(* The vals of one .mli, each with its module path and its optional
   parameters.  Vals inside module types, functor parameters or objects
   are not exports of the file. *)
let exports file =
  let top = module_name file in
  let rec go stack toks acc =
    match toks with
    | [] -> acc
    | Path [ "module" ] :: Path [ m ] :: Sym ':' :: Path [ "sig" ] :: rest ->
      go (Some m :: stack) rest acc
    | Path [ ("sig" | "object" | "struct" | "begin") ] :: rest ->
      go (None :: stack) rest acc
    | Path [ "end" ] :: rest -> go (match stack with [] -> [] | _ :: s -> s) rest acc
    | Path [ ("val" | "external") ] :: Path [ v ] :: rest
      when not (is_upper v.[0]) && List.for_all Option.is_some stack ->
      let inner = List.rev_map Option.get stack in
      go stack rest (((top :: inner) @ [ v ], optional_labels rest) :: acc)
    | _ :: rest -> go stack rest acc
  in
  List.rev (go [] (tokenize (read_file file)) [])

(* ---- uses ---- *)

type uses = {
  paths : string list list;  (** every dotted or bare path, aliases expanded *)
  opens : string list list;  (** opened or included modules, expanded *)
  functor_args : string list list;  (** modules passed to functors, expanded *)
  labels : string list;  (** every [~p] and [?p] name *)
}

let is_module_path p = p <> [] && List.for_all (fun c -> is_upper c.[0]) p

let uses_of file =
  let toks = tokenize (read_file file) in
  let aliases = Hashtbl.create 8 in
  let rec expand depth p =
    match p with
    | a :: rest when depth < 8 -> (
      match Hashtbl.find_opt aliases a with
      | Some target -> expand (depth + 1) (target @ rest)
      | None -> p)
    | _ -> p
  in
  let rec scan toks =
    match toks with
    | Path [ "module" ] :: Path [ a ] :: Sym '=' :: Path p :: rest
      when is_module_path p && (match rest with Sym '(' :: _ -> false | _ -> true) ->
      Hashtbl.replace aliases a (expand 0 p);
      scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan toks;
  let paths = ref [] and opens = ref [] and functor_args = ref [] and labels = ref [] in
  let rec collect toks =
    match toks with
    | Label (_, p) :: rest ->
      labels := p :: !labels;
      collect rest
    | Path [ ("open" | "include") ] :: Path p :: rest when is_module_path p ->
      opens := expand 0 p :: !opens;
      collect rest
    | Local_open p :: rest ->
      opens := expand 0 p :: !opens;
      collect rest
    | Path f :: Sym '(' :: Path a :: Sym ')' :: rest
      when is_module_path f && is_module_path a ->
      functor_args := expand 0 a :: !functor_args;
      collect (Path a :: Sym ')' :: rest)
    | Path p :: rest ->
      paths := expand 0 p :: !paths;
      collect rest
    | _ :: rest -> collect rest
    | [] -> ()
  in
  collect toks;
  { paths = !paths; opens = !opens; functor_args = !functor_args; labels = !labels }

let rec ends_with ~suffix l =
  let ls = List.length l and lx = List.length suffix in
  if ls < lx then false
  else if ls = lx then l = suffix
  else ends_with ~suffix (List.tl l)

(* [M.S.v] is used through a functor argument that ends with [M] or [M.S]. *)
let passed_to_functor u v =
  let rec modpaths acc = function
    | [] | [ _ ] -> []
    | m :: rest -> let p = acc @ [ m ] in p :: modpaths p rest
  in
  List.exists
    (fun a -> List.exists (fun p -> ends_with ~suffix:p a) (modpaths [] v))
    u.functor_args

(* ---- files ---- *)

let rec source_files dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then
          if name = "_build" || name.[0] = '.' then [] else source_files path
        else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
        then [ path ]
        else [])

let () =
  let files = List.concat_map source_files [ "lib"; "bin"; "bench"; "test"; "examples" ] in
  let interfaces =
    List.filter
      (fun f ->
         Filename.check_suffix f ".mli" && Filename.dirname (Filename.dirname f) = "lib")
      files
  in
  let vals =
    List.concat_map (fun mli -> List.map (fun v -> (mli, v)) (exports mli)) interfaces
  in
  let exported = List.map (fun (mli, (v, _)) -> (mli, v)) vals in
  (* the labels each file passes or binds, by file without extension *)
  let labels = Hashtbl.create 256 in
  (* every exported path, with the files (without extension) that use it *)
  let users = Hashtbl.create 1024 in
  List.iter (fun (_, v) -> Hashtbl.replace users v []) exported;
  let use file v =
    match Hashtbl.find_opt users v with
    | Some fs -> Hashtbl.replace users v (file :: fs)
    | None -> ()
  in
  let rec use_suffixes file = function
    | [] -> ()
    | _ :: rest as p -> use file p; use_suffixes file rest
  in
  List.iter
    (fun f ->
       let u = uses_of f and file = Filename.remove_extension f in
       Hashtbl.replace labels file
         (u.labels @ Option.value (Hashtbl.find_opt labels file) ~default:[]);
       let opens = List.sort_uniq compare u.opens in
       List.iter
         (fun p ->
            use_suffixes file p;
            List.iter (fun o -> use_suffixes file (o @ p)) opens)
         u.paths;
       List.iter (fun (_, v) -> if passed_to_functor u v then use file v) exported)
    files;
  (* the exports no file that [counts] accepts uses, besides their own *)
  let unused_by counts =
    List.filter
      (fun (mli, v) ->
         let own = Filename.remove_extension mli in
         not (List.exists (fun f -> f <> own && counts f) (Hashtbl.find users v)))
      exported
  in
  let print =
    List.iter (fun (mli, v) -> Printf.printf "%s: %s\n" mli (String.concat "." v))
  in
  let outside_test f = not (String.starts_with ~prefix:"test/" f) in
  let unused = unused_by (fun _ -> true) in
  let test_only =
    List.filter
      (fun e -> not (List.mem e unused))
      (unused_by outside_test)
  in
  let test_only_optionals =
    List.concat_map
      (fun (mli, (v, ps)) ->
         let own = Filename.remove_extension mli in
         List.filter_map
           (fun p ->
              if
                Hashtbl.fold
                  (fun f ls seen -> seen || (f <> own && outside_test f && List.mem p ls))
                  labels false
              then None
              else Some (Printf.sprintf "%s: %s ?%s" mli (String.concat "." v) p))
           (List.sort_uniq compare ps))
      vals
  in
  print unused;
  Printf.printf "exports only test/ uses (%d):\n" (List.length test_only);
  print test_only;
  Printf.printf "optional parameters only test/ passes (%d):\n"
    (List.length test_only_optionals);
  List.iter print_endline test_only_optionals;
  exit (if unused = [] then 0 else 1)
