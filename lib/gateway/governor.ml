(* The eviction-storm meter behind the gateway's overload shedding.

   Every plan compiles once, at the engine its shape needs, so the only
   plan-side overload left is cache thrash: when evictions per window of
   simulated time exceed [shed_evictions], compiling more plans only
   evicts other tenants' plans, so the gateway sheds new plan work.
   Window rolls halve the count (exponential decay), giving hysteresis:
   a storm drains gradually instead of the signal flapping at the window
   edge.  Counts are of events on the virtual clock, never wall time, so
   seeded runs replay exactly. *)

type config = { window_s : float; shed_evictions : int }

let default = { window_s = 0.05; shed_evictions = 0 }

type t = {
  cfg : config;
  mutable window_start : float;
  mutable window_evictions : int;
}

let create ?(now = 0.) (cfg : config) =
  if not (cfg.window_s > 0.) then invalid_arg "Governor.create: window_s must be > 0";
  if cfg.shed_evictions < 0 then
    invalid_arg "Governor.create: shed_evictions must be >= 0";
  { cfg; window_start = now; window_evictions = 0 }

(* Advance the window to cover [now], halving the count per elapsed
   window.  A long idle gap (>= 64 windows) just clears the state — the
   decayed count would be zero anyway. *)
let roll t ~now =
  let w = t.cfg.window_s in
  if now -. t.window_start >= 64. *. w then begin
    t.window_start <- now;
    t.window_evictions <- 0
  end
  else
    while now -. t.window_start >= w do
      t.window_start <- t.window_start +. w;
      t.window_evictions <- t.window_evictions / 2
    done

let note_eviction t ~now =
  roll t ~now;
  t.window_evictions <- t.window_evictions + 1

let overloaded t ~now =
  roll t ~now;
  t.cfg.shed_evictions > 0 && t.window_evictions > t.cfg.shed_evictions
