module G = Graph
module F = Sop.Factor

let run ?(max_leaves = 10) g =
  let fanout = G.fanout_counts g in
  let plan_tbl = Hashtbl.create 256 in
  for id = 0 to G.num_nodes g - 1 do
    if G.is_and g id then begin
      let cut = Cut.reconvergent_cut g ~fanout ~max_leaves id in
      if Array.length cut >= 2 && Array.length cut <= max_leaves then begin
        let tt = Cut.cut_function g id cut in
        let form = F.factor (Sop.Isop.compute tt) in
        let cost = F.form_cost form in
        let freed = Cut.mffc_size g ~fanout id cut in
        if freed > cost then
          Hashtbl.replace plan_tbl id
            { Rewrite.root = id; leaves = cut; form }
      end
    end
  done;
  let result = Rewrite.rebuild g (Hashtbl.find_opt plan_tbl) in
  if G.size result <= G.size g then result else G.cleanup g
