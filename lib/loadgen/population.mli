(** A weighted population of sender format versions drawn from a
    {!Morphcheck.Evolve} lineage.

    Version 0 is the base format (what the receiving side registers);
    version [i] is the format after [i] evolution steps, shipped with the
    writer-side meta-data carrying the full retro-transformation chain
    back to the base — so a v0 sender delivers [Exact] and every newer
    sender exercises the morphing path.  Each version pre-encodes one
    representative wire message so the hot loop pays decode + morph, not
    generation. *)

open Pbio

type version = {
  index : int;
  format : Ptype.record;
  meta : Meta.format_meta;  (** body = [format], xforms chain to v0 *)
  bytes : string;  (** a complete [Wire.encode]d message of this version *)
  weight : float;  (** share of the population, normalised to sum 1 *)
}

type t

(** Build a population of [versions] formats (v0 .. v[versions-1])
    by evolving the load-event base format
    [LoadEvent { int kind; string tag; int count; float gauge; }] with
    [Morphcheck.Evolve]; deterministic in [seed].

    [mix] lists weights {e newest-first} (the paper's "70% v2 / 25% v1 /
    5% stragglers" reads off directly as [[70.; 25.; 5.]]); shorter
    lists leave older versions at weight 0, longer ones are truncated.
    Omitted, the default mix gives the head 70%, its predecessor 25%
    and splits 5% across the remaining stragglers.  Raises
    [Invalid_argument] when [versions < 1] or no weight is positive. *)
val make : ?mix:float list -> versions:int -> seed:int -> unit -> t

val versions : t -> version array
val base : t -> Ptype.record

(** Draw a version index according to the weights. *)
val pick : t -> Random.State.t -> int

(** ["v0:5.0% v1:25.0% v2:70.0%"] — oldest first, for run summaries. *)
val describe_mix : t -> string
