module G = Graph
module S = Network.Signal
module F = Sop.Factor

type candidate = { root : int; leaves : Cut.t; form : F.form }

let build_form g leaf_sigs form =
  let rec go = function
    | F.Const b -> if b then G.const1 g else G.const0 g
    | F.Lit (i, pos) -> S.xor_complement leaf_sigs.(i) (not pos)
    | F.And fs -> G.and_n g (List.map go fs)
    | F.Or fs -> G.or_n g (List.map go fs)
  in
  go form

let rebuild g plan =
  let fresh = G.create ~ctx:(G.ctx g) () in
  let map = Array.make (G.num_nodes g) None in
  map.(0) <- Some (G.const0 fresh);
  List.iter (fun id -> map.(id) <- Some (G.add_pi fresh (G.pi_name g id))) (G.pis g);
  let rec build id =
    match map.(id) with
    | Some s -> s
    | None ->
        let s =
          match plan id with
          | Some cand ->
              let leaf_sigs = Array.map build cand.leaves in
              build_form fresh leaf_sigs cand.form
          | None ->
              let value s = S.xor_complement (build (S.node s)) (S.is_complement s) in
              G.and_ fresh (value (G.fanin0 g id)) (value (G.fanin1 g id))
        in
        map.(id) <- Some s;
        s
  in
  let value s = S.xor_complement (build (S.node s)) (S.is_complement s) in
  List.iter (fun (name, s) -> G.add_po fresh name (value s)) (G.pos g);
  G.cleanup fresh

let candidate_for g fanout cuts id =
  let best = ref None in
  List.iter
    (fun cut ->
      let nleaves = Array.length cut in
      if nleaves >= 2 then begin
        let tt = Cut.cut_function g id cut in
        let form = F.factor (Sop.Isop.compute tt) in
        let cost = F.form_cost form in
        let freed = Cut.mffc_size g ~fanout id cut in
        let gain = freed - cost in
        match !best with
        | Some (bg, _) when bg >= gain -> ()
        | _ ->
            if gain > 0 then best := Some (gain, { root = id; leaves = cut; form })
      end)
    cuts;
  Option.map snd !best

let run ?(k = 4) ?(max_cuts = 8) g =
  let cuts = Cut.enumerate ~k ~max_cuts g in
  let fanout = G.fanout_counts g in
  let plan_tbl = Hashtbl.create 256 in
  for id = 0 to G.num_nodes g - 1 do
    if G.is_and g id then
      match candidate_for g fanout cuts.(id) id with
      | Some cand -> Hashtbl.replace plan_tbl id cand
      | None -> ()
  done;
  let result = rebuild g (Hashtbl.find_opt plan_tbl) in
  if G.size result <= G.size g then result else G.cleanup g
