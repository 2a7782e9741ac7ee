(** A binary min-heap keyed by float priority, for the discrete-event
    scheduler.  Entries with equal priority dequeue in insertion order
    (FIFO ties). *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> float -> 'a -> unit

(** Remove and return the minimum-priority entry. *)
val pop : 'a t -> (float * 'a) option

val peek : 'a t -> (float * 'a) option
