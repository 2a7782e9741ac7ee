(** Shared, bounded plan cache for the multi-tenant gateway.

    One store across every tenant, with two interacting limits:
    [max_entries] (total live entries — the memory bound) and
    [tenant_quota] (per-tenant entry cap, so a tenant churning through
    formats evicts its own plans, not its neighbours').  Eviction order
    is least-recently-used, kept by lazy deletion: every touch pushes an
    (entry, tick) pair on a ring of two arrays, compacted in place.  The
    table hashes and compares its (tenant, key) pairs as ints, so a hit
    allocates nothing.

    Not thread-safe; the gateway runs on {!Transport.Netsim}'s
    single-threaded event loop. *)

type 'v t

type stats = {
  entries : int;
  high_water : int;  (** most entries ever live at once *)
  hits : int;
  misses : int;
  evictions : int;  (** capacity evictions (including quota evictions) *)
  quota_evictions : int;  (** evictions forced by a tenant's own quota *)
}

(** [create ()] — defaults: 1024 entries, unlimited per-tenant quota, no
    eviction hook.  [on_evict] fires on every capacity eviction (not when
    {!add} replaces a key), e.g. to count evictions.  Raises
    [Invalid_argument] on non-positive limits. *)
val create :
  ?max_entries:int ->
  ?tenant_quota:int ->
  ?on_evict:(tenant:int -> key:int -> unit) ->
  unit ->
  'v t

(** Lookup refreshes recency and counts a hit or miss. *)
val find : 'v t -> tenant:int -> key:int -> 'v option

(** Insert (replacing any previous value under the same key without
    counting an eviction), evicting first the owning tenant's LRU entries
    down to quota, then the globally least-recently-used entries until
    the entry bound holds. *)
val add : 'v t -> tenant:int -> key:int -> 'v -> unit

val size : 'v t -> int
val high_water : 'v t -> int
val tenant_count : 'v t -> int -> int
val stats : 'v t -> stats
