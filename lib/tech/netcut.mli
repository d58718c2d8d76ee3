(** K-feasible cuts on the generic network IR (the mapper's subject
    graph): the {!Network.Cut.Make} instance whose gates are the
    network's gates.  Cut functions are padded to 3 variables. *)

include Network.Cut.S with type graph := Network.Graph.t
