(** XML serialisation. *)

val escape_into : Buffer.t -> string -> unit

(** Compact single-line form — the wire form the benchmarks measure. *)
val to_string : Xml.t -> string
