(* A small binary min-heap keyed by float priority, for the discrete-event
   scheduler.  Entries with equal priority dequeue in insertion order. *)

type 'a entry = {
  prio : float;
  seq : int;
  item : 'a;
}

type 'a t = {
  mutable data : 'a entry option array;
  (* slots from [size] on hold [None]: a popped entry (a delivered frame's
     payload, a fired timer's closure) must not stay reachable *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let get q i = match q.data.(i) with Some e -> e | None -> assert false

let before a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let swap q i j =
  let tmp = q.data.(i) in
  q.data.(i) <- q.data.(j);
  q.data.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before (get q i) (get q parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && before (get q l) (get q !smallest) then smallest := l;
  if r < q.size && before (get q r) (get q !smallest) then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q prio item =
  let e = { prio; seq = q.next_seq; item } in
  q.next_seq <- q.next_seq + 1;
  let cap = Array.length q.data in
  if q.size = cap then begin
    let data = Array.make (max 16 (cap * 2)) None in
    Array.blit q.data 0 data 0 q.size;
    q.data <- data
  end;
  q.data.(q.size) <- Some e;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q : (float * 'a) option =
  if q.size = 0 then None
  else begin
    let top = get q 0 in
    q.size <- q.size - 1;
    q.data.(0) <- q.data.(q.size);
    q.data.(q.size) <- None;
    if q.size > 0 then sift_down q 0;
    Some (top.prio, top.item)
  end

let peek q : (float * 'a) option =
  if q.size = 0 then None
  else
    let e = get q 0 in
    Some (e.prio, e.item)
