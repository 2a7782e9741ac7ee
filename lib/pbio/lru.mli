(** A bounded map that evicts its least-recently-used entry at the cap:
    the one LRU behind the codec plan caches and [Morph.Receiver]'s
    pipeline table, so hostile shipped meta-data cannot grow either
    without limit and a burst of fresh keys cannot flush the hot ones.

    Keys hang off a caller-supplied hash and resolve collisions with
    [equal].  Not synchronised: callers that share a table across
    domains hold their own lock. *)

type ('k, 'v) t

(** An empty table holding at most [cap] entries. *)
val create : equal:('k -> 'k -> bool) -> cap:int -> ('k, 'v) t

(** Live entries. *)
val size : ('k, 'v) t -> int

(** The value under [k] (hashed to [hash]), refreshed as most recently
    used. *)
val find : ('k, 'v) t -> hash:int -> 'k -> 'v option

(** Insert [k] (hashed to [hash]), evicting least-recently-used entries
    down to [cap - 1] first; returns how many were evicted. *)
val add : ('k, 'v) t -> hash:int -> 'k -> 'v -> int

(** Drop every entry. *)
val reset : ('k, 'v) t -> unit
