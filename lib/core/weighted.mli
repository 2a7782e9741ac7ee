(** Importance-weighted matching — the extension sketched in the paper's
    future work: "the ability to weight different fields and sub-fields
    based on some measure of importance".

    A weighting assigns every basic field a non-negative importance, looked
    up by its dotted path from the base format (array elements share their
    element type's paths, e.g. ["member_list.info.host"]).  The plain
    Algorithm 1 quantities are recovered with {!uniform}; a weight of 0
    declares a field irrelevant to compatibility, larger weights make its
    absence count for more. *)

open Pbio

type t

(** Every field weighs 1.0: weighted quantities equal Algorithm 1's. *)
val uniform : t

(** [make overrides] builds a weighting from dotted-path overrides; fields
    not listed weigh [default_weight] (1.0 unless given).  Raises
    [Invalid_argument] on negative weights. *)
val make : ?default_weight:float -> (string * float) list -> t

(** Weighted W{_f}: total importance mass of a format's basic fields. *)
val weight : t -> Ptype.record -> float

(** Weighted Algorithm 1: the importance mass of [f1]'s fields absent from
    [f2], with paths evaluated on the [f1] side. *)
val diff : t -> Ptype.record -> Ptype.record -> float

(** Weighted M{_r}(f1, f2) = weighted diff(f2, f1) / weighted W{_f2}. *)
val mismatch_ratio : t -> Ptype.record -> Ptype.record -> float

type thresholds = {
  diff_threshold : float;
  mismatch_threshold : float;
}

type match_result = {
  f1 : Ptype.record;
  f2 : Ptype.record;
  diff12 : float;
  diff21 : float;
  ratio : float;
}

(** Weighted MaxMatch: same selection rule as {!Maxmatch.max_match} with
    weighted quantities and float thresholds. *)
val max_match :
  ?weights:t ->
  ?thresholds:thresholds ->
  Ptype.record list ->
  Ptype.record list ->
  match_result option

val pp_match : Format.formatter -> match_result -> unit
