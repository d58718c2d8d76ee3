(** K-feasible cuts on AIGs: the {!Network.Cut.Make} instance whose
    gates are the AND nodes.  Enumeration polls the graph's budget;
    cut functions have exactly one variable per leaf. *)

include Network.Cut.S with type graph := Graph.t
