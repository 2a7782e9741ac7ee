(** Contact information for a process endpoint — the analogue of ECho's
    CMcontact_info. *)

type t = {
  host : string;
  port : int;
}

val make : string -> int -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Parse ["host:port"]. *)
val of_string : string -> (t, string) result
