(** Refactoring (the [refactor] step of the resyn script).

    Collects a larger reconvergence-driven cone per node (up to
    [max_leaves] leaves, preferring to absorb single-fanout fanins),
    collapses it to a truth table and resynthesizes it with ISOP +
    factoring; accepted when the factored form is estimated cheaper
    than the cone's MFFC. *)

val run : ?max_leaves:int -> Graph.t -> Graph.t
(** One refactoring pass; never returns a larger graph. *)
