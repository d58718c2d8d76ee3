(** DAG-aware cut rewriting (the [rewrite] step of the resyn script).

    Every node's k-feasible cuts are resynthesized through ISOP +
    algebraic factoring; a node is marked for replacement when the
    factored implementation is estimated cheaper than the logic it
    frees (its cut-limited MFFC).  A demand-driven rebuild then
    applies all accepted replacements at once, and the result is kept
    only if it is actually smaller. *)

type candidate = {
  root : int;
  leaves : Cut.t;
  form : Sop.Factor.form;  (** literals index into [leaves] *)
}

val rebuild : Graph.t -> (int -> candidate option) -> Graph.t
(** [rebuild g plan] copies [g], substituting each node for which
    [plan] returns a candidate by the candidate's factored form built
    over its (rebuilt) leaves.  Unreferenced logic is swept. *)

val run : ?k:int -> ?max_cuts:int -> Graph.t -> Graph.t
(** One rewriting pass; never returns a larger graph. *)
