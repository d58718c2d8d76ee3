(** K-feasible cuts on MIGs: the {!Network.Cut.Make} instance whose
    gates are the majority nodes.  Dead majority nodes get no cuts,
    enumeration polls the graph's budget, and cut functions are padded
    to 3 variables. *)

include Network.Cut.S with type graph := Graph.t
