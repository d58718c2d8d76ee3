module G = Network.Graph

include Network.Cut.Make (struct
  type t = G.t

  let num_nodes = G.num_nodes
  let is_pi n i = match G.node n i with G.Pi _ -> true | _ -> false
  let is_gate n i = match G.node n i with G.Gate _ -> true | _ -> false

  let fanins n i =
    match G.node n i with G.Gate (_, fs) -> fs | _ -> [||]

  let eval n i (v : Truthtable.t array) =
    let module T = Truthtable in
    match G.node n i with
    | G.Gate (G.And, _) -> T.and_ v.(0) v.(1)
    | G.Gate (G.Or, _) -> T.or_ v.(0) v.(1)
    | G.Gate (G.Xor, _) -> T.xor_ v.(0) v.(1)
    | G.Gate (G.Maj, _) -> T.maj v.(0) v.(1) v.(2)
    | G.Gate (G.Mux, _) -> T.mux v.(0) v.(1) v.(2)
    | G.Const0 | G.Pi _ -> invalid_arg "Netcut.eval: not a gate"

  let live _ _ = true
  let poll _ () = ()
  let min_vars = 3
end)
