include Network.Cut.Make (struct
  type t = Graph.t

  let num_nodes = Graph.num_nodes
  let is_pi = Graph.is_pi
  let is_gate = Graph.is_maj
  let fanins = Graph.fanins
  let eval _ _ (tts : Truthtable.t array) = Truthtable.maj tts.(0) tts.(1) tts.(2)

  let live g =
    let reach = Graph.reachable g in
    fun i -> reach.(i)

  let poll g =
    let budget = Lsutil.Ctx.budget (Graph.ctx g) in
    fun () -> Lsutil.Budget.poll budget

  let min_vars = 3
end)
