(* Format registries.

   A writer-side registry assigns small integer ids to formats (the id that
   travels in each message header) and remembers the meta-data to push
   out-of-band.  Registration is idempotent: structurally identical meta
   registers once. *)

type fmt = {
  id : int;
  meta : Meta.format_meta;
}

type t = {
  mutable next_id : int;
  by_id : (int, fmt) Hashtbl.t;
  by_hash : (int, fmt list) Hashtbl.t;
}

let create () = { next_id = 1; by_id = Hashtbl.create 16; by_hash = Hashtbl.create 16 }

let find_structural t (meta : Meta.format_meta) : fmt option =
  let h = Meta.hash meta in
  match Hashtbl.find_opt t.by_hash h with
  | None -> None
  | Some fmts -> List.find_opt (fun f -> Meta.equal f.meta meta) fmts

let register t (meta : Meta.format_meta) : fmt =
  match find_structural t meta with
  | Some f -> f
  | None ->
    let id = t.next_id in
    t.next_id <- id + 1;
    let f = { id; meta } in
    Hashtbl.replace t.by_id id f;
    let h = Meta.hash meta in
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.by_hash h) in
    Hashtbl.replace t.by_hash h (f :: prev);
    f

let find t id = Hashtbl.find_opt t.by_id id

let find_by_name t name =
  Hashtbl.fold
    (fun _ f acc -> if f.meta.Meta.body.Ptype.rname = name then f :: acc else acc)
    t.by_id []

let size t = Hashtbl.length t.by_id
