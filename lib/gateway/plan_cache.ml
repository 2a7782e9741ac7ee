(* The gateway's shared plan cache: one bounded store across every
   tenant.

   Two limits interact:
     - [max_entries]: total live entries, the memory bound;
     - [tenant_quota]: per-tenant entry cap, so one tenant churning
       through formats evicts its own plans, not its neighbours'.

   Recency is a lazy-deletion LRU: each touch stamps the entry with a new
   tick and pushes (entry, tick) on a ring; eviction pops until a tick
   still matches.  The ring is two arrays (entries and ticks), grown by
   doubling and compacted in place once it holds more than 4 x entries +
   64 pairs, so a hit allocates nothing of its own.  Per-tenant eviction
   scans only that tenant's entries (at most [tenant_quota] of them).

   Both indexes hash and compare ints only: an entry sits in the bucket
   of its (tenant, key) pair mixed into one int, so a lookup calls
   neither the generic hash nor the generic compare, and a hit allocates
   nothing at all. *)

module Itbl = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash (k : int) = k land max_int
end)

(* Distinct tenants with one key land in distinct buckets; the key is a
   format fingerprint, itself a hash. *)
let[@inline] mix ~tenant ~key = (tenant * 0x9E3779B1) + key

type 'v entry = {
  e_tenant : int;
  e_key : int;
  mutable e_value : 'v option;
      (* [None] once deleted, so a stale ring slot keeps no value alive *)
  mutable e_tick : int;
  mutable e_alive : bool;
}

type stats = {
  entries : int;
  high_water : int;
  hits : int;
  misses : int;
  evictions : int;
  quota_evictions : int;
}

type 'v t = {
  max_entries : int;
  tenant_quota : int;
  on_evict : (tenant:int -> key:int -> unit) option;
  table : 'v entry list Itbl.t; (* by [mix], live entries only *)
  mutable ring : 'v entry array; (* touches, oldest at [head], [len] of them *)
  mutable ticks : int array; (* each touch's tick, at its entry's index *)
  mutable head : int;
  mutable len : int;
  by_tenant : 'v entry list ref Itbl.t;
  mutable count : int;
  mutable clock : int;
  mutable high_water : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable quota_evictions : int;
}

let create ?(max_entries = 1024) ?(tenant_quota = max_int) ?on_evict () =
  if max_entries < 1 then invalid_arg "Plan_cache.create: max_entries must be >= 1";
  if tenant_quota < 1 then invalid_arg "Plan_cache.create: tenant_quota must be >= 1";
  {
    max_entries;
    tenant_quota;
    on_evict;
    table = Itbl.create 256;
    ring = [||];
    ticks = [||];
    head = 0;
    len = 0;
    by_tenant = Itbl.create 64;
    count = 0;
    clock = 0;
    high_water = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    quota_evictions = 0;
  }

let size t = t.count
let high_water t = t.high_water

let stats t =
  {
    entries = t.count;
    high_water = t.high_water;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    quota_evictions = t.quota_evictions;
  }

let tenant_entries t tenant =
  match Itbl.find_opt t.by_tenant tenant with
  | None -> []
  | Some l ->
    (* prune dead entries while we are here *)
    let live = List.filter (fun e -> e.e_alive) !l in
    l := live;
    live

let tenant_count t tenant = List.length (tenant_entries t tenant)

(* The ring index [k] places after the head. *)
let[@inline] slot t k =
  let i = t.head + k in
  if i >= Array.length t.ring then i - Array.length t.ring else i

(* Double the ring, unwrapped to start at 0; [e] fills the new slots. *)
let grow t e =
  let cap = max 16 (2 * Array.length t.ring) in
  let ring = Array.make cap e and ticks = Array.make cap 0 in
  for k = 0 to t.len - 1 do
    ring.(k) <- t.ring.(slot t k);
    ticks.(k) <- t.ticks.(slot t k)
  done;
  t.ring <- ring;
  t.ticks <- ticks;
  t.head <- 0

(* Keep only the pairs whose tick is still their entry's, in order. *)
let compact t =
  let kept = ref 0 in
  for k = 0 to t.len - 1 do
    let i = slot t k in
    let e = t.ring.(i) and tk = t.ticks.(i) in
    if e.e_alive && e.e_tick = tk then begin
      let j = slot t !kept in
      t.ring.(j) <- e;
      t.ticks.(j) <- tk;
      incr kept
    end
  done;
  t.len <- !kept

let touch t e =
  t.clock <- t.clock + 1;
  e.e_tick <- t.clock;
  if t.len = Array.length t.ring then grow t e;
  let i = slot t t.len in
  t.ring.(i) <- e;
  t.ticks.(i) <- t.clock;
  t.len <- t.len + 1;
  if t.len > (4 * t.count) + 64 then compact t

let rec find_in t ~tenant ~key = function
  | [] ->
    t.misses <- t.misses + 1;
    None
  | e :: rest ->
    if e.e_tenant = tenant && e.e_key = key then begin
      t.hits <- t.hits + 1;
      touch t e;
      e.e_value
    end
    else find_in t ~tenant ~key rest

let find t ~tenant ~key =
  match Itbl.find t.table (mix ~tenant ~key) with
  | bucket -> find_in t ~tenant ~key bucket
  | exception Not_found ->
    t.misses <- t.misses + 1;
    None

(* Unlink [e] from every index.  [evicted] says whether this removal is an
   eviction (capacity pressure) as opposed to an explicit [remove]. *)
let delete t e ~evicted ~quota =
  if e.e_alive then begin
    e.e_alive <- false;
    e.e_value <- None;
    let h = mix ~tenant:e.e_tenant ~key:e.e_key in
    (match List.filter (fun e' -> e' != e) (Itbl.find t.table h) with
     | [] -> Itbl.remove t.table h
     | rest -> Itbl.replace t.table h rest);
    (match Itbl.find_opt t.by_tenant e.e_tenant with
     | Some l -> l := List.filter (fun e' -> e' != e) !l
     | None -> ());
    t.count <- t.count - 1;
    if evicted then begin
      t.evictions <- t.evictions + 1;
      if quota then t.quota_evictions <- t.quota_evictions + 1;
      match t.on_evict with
      | Some f -> f ~tenant:e.e_tenant ~key:e.e_key
      | None -> ()
    end
  end

(* Evict the globally least-recently-used entry; [false] when empty. *)
let rec evict_lru t =
  if t.len = 0 then false
  else begin
    let e = t.ring.(t.head) and tk = t.ticks.(t.head) in
    t.head <- slot t 1;
    t.len <- t.len - 1;
    if e.e_alive && e.e_tick = tk then begin
      delete t e ~evicted:true ~quota:false;
      true
    end
    else evict_lru t
  end

(* Evict [tenant]'s least-recently-used entry (a quota eviction). *)
let evict_tenant_lru t tenant =
  match tenant_entries t tenant with
  | [] -> false
  | e0 :: rest ->
    let lru =
      List.fold_left (fun a e -> if e.e_tick < a.e_tick then e else a) e0 rest
    in
    delete t lru ~evicted:true ~quota:true;
    true

let remove t ~tenant ~key =
  match Itbl.find_opt t.table (mix ~tenant ~key) with
  | Some bucket ->
    List.iter
      (fun e -> if e.e_tenant = tenant && e.e_key = key then delete t e ~evicted:false ~quota:false)
      bucket
  | None -> ()

let add t ~tenant ~key v =
  remove t ~tenant ~key;
  (* per-tenant quota first: a tenant over quota pays with its own LRU
     entry, leaving the shared pool alone *)
  while tenant_count t tenant >= t.tenant_quota && evict_tenant_lru t tenant do
    ()
  done;
  (* then the shared bound *)
  while t.count >= t.max_entries && evict_lru t do
    ()
  done;
  let e = { e_tenant = tenant; e_key = key; e_value = Some v; e_tick = 0; e_alive = true } in
  let h = mix ~tenant ~key in
  Itbl.replace t.table h
    (e :: Option.value ~default:[] (Itbl.find_opt t.table h));
  let l =
    match Itbl.find_opt t.by_tenant tenant with
    | Some l -> l
    | None ->
      let l = ref [] in
      Itbl.replace t.by_tenant tenant l;
      l
  in
  l := e :: !l;
  t.count <- t.count + 1;
  if t.count > t.high_water then t.high_water <- t.count;
  touch t e
