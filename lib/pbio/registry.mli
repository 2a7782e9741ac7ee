(** Format registries.

    A writer-side registry assigns small integer ids to formats (the id
    that travels in each message header) and remembers the meta-data to
    push out-of-band.  Registration is idempotent: structurally identical
    meta registers once. *)

type fmt = {
  id : int;
  meta : Meta.format_meta;
}

type t

val create : unit -> t

(** Register local meta-data, allocating a fresh id unless structurally
    identical meta is already present. *)
val register : t -> Meta.format_meta -> fmt

val find : t -> int -> fmt option

(** All registered formats whose base record has the given name. *)
val find_by_name : t -> string -> fmt list

val size : t -> int
