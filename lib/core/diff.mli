(** Algorithm 1 of the paper: the recursive [diff] between two formats, and
    the Mismatch Ratio it normalises into. *)

open Pbio

(** Re-exports of {!Ptype.weight} for symmetry with [diff]. *)
val weight : Ptype.record -> int

(** [diff f1 f2] is the total number of basic-type fields present in [f1]
    but not in [f2].  Basic fields match when [f2] has a field of the same
    name and basic type; a complex field looks for a complex field of the
    same name and kind in [f2] — charging its whole weight when absent,
    recursing otherwise. *)
val diff : Ptype.record -> Ptype.record -> int

(** [(f1, f2)] is a perfect matching pair iff [diff f1 f2 = diff f2 f1 = 0]
    (field order and record names are free). *)
val perfect_match : Ptype.record -> Ptype.record -> bool

(** M{_r}(f1, f2) = diff(f2, f1) / W{_f2}: the fraction of [f2]'s fields a
    message of format [f1] cannot supply.  In [0, 1]. *)
val mismatch_ratio : Ptype.record -> Ptype.record -> float
