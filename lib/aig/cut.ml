include Network.Cut.Make (struct
  type t = Graph.t

  let num_nodes = Graph.num_nodes
  let is_pi = Graph.is_pi
  let is_gate = Graph.is_and
  let fanins g i = [| Graph.fanin0 g i; Graph.fanin1 g i |]
  let eval _ _ (tts : Truthtable.t array) = Truthtable.and_ tts.(0) tts.(1)
  let live _ _ = true

  let poll g =
    let budget = Lsutil.Ctx.budget (Graph.ctx g) in
    fun () -> Lsutil.Budget.poll budget

  let min_vars = 0
end)
