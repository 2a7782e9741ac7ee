(* Per-pipeline circuit breaker.

   Generalises the receiver quarantine of PR 2: a transformation (or, in the
   gateway, a whole tenant) that keeps failing trips the breaker after
   [threshold] consecutive failures.  With no cooldown the breaker stays
   open for good — exactly the old quarantine.  With a cooldown the breaker
   re-admits a probe delivery after [cooldown_s] of simulated time; a probe
   success closes the circuit, a probe failure re-opens it for another
   cooldown. *)

type state = Closed | Open | Half_open

let pp_state ppf = function
  | Closed -> Fmt.string ppf "closed"
  | Open -> Fmt.string ppf "open"
  | Half_open -> Fmt.string ppf "half-open"

type t = {
  cooldown_s : float option;
  on_trip : (t -> unit) option;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable trips : int;
}

(* Consecutive failures that trip a closed breaker open. *)
let threshold = 3

let create ?cooldown_s ?on_trip () =
  (match cooldown_s with
   | Some c when not (c > 0.) -> invalid_arg "Breaker.create: cooldown_s must be > 0"
   | _ -> ());
  {
    cooldown_s;
    on_trip;
    state = Closed;
    consecutive_failures = 0;
    opened_at = neg_infinity;
    trips = 0;
  }

let state t = t.state
let consecutive_failures t = t.consecutive_failures
let trips t = t.trips

(* Deliveries admitted while [Half_open] are probes: the next recorded
   outcome decides whether the circuit closes again or re-opens. *)
let admit t ~now =
  match t.state with
  | Closed | Half_open -> true
  | Open ->
    (match t.cooldown_s with
     | None -> false
     | Some c when now -. t.opened_at >= c ->
       t.state <- Half_open;
       true
     | Some _ -> false)

(* Returns [true] when this success closed a half-open circuit (a probe
   recovery), [false] on an ordinary success. *)
let record_success t =
  let recovered = t.state = Half_open in
  t.consecutive_failures <- 0;
  t.state <- Closed;
  recovered

(* Returns [true] when this failure tripped the breaker open (either the
   threshold was reached, or a half-open probe failed). *)
let record_failure t ~now =
  t.consecutive_failures <- t.consecutive_failures + 1;
  let trip () =
    t.state <- Open;
    t.opened_at <- now;
    t.trips <- t.trips + 1;
    (match t.on_trip with Some f -> f t | None -> ());
    true
  in
  match t.state with
  | Half_open -> trip ()
  | Closed when t.consecutive_failures >= threshold -> trip ()
  | Closed | Open -> false
