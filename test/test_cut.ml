(* The shared cut substrate (Network.Cut.Make) through its three
   instances: Mig.Cut, Aig.Cut and Tech.Netcut. *)

module S = Network.Signal
module N = Network.Graph
module T = Truthtable

(* One instance under test, with an independent evaluator of a node
   over leaf values. *)
type inst = {
  name : string;
  is_gate : int -> bool;
  fanins : int -> S.t array;
  fanout : int array;
  live : int -> bool;
  eval : (int -> bool option) -> int -> bool;
      (** [eval leaf id]: value of [id], [leaf] overriding nodes *)
  enumerate : k:int -> max_cuts:int -> int array list array;
  cut_function : int -> int array -> T.t;
  cone : int -> int array -> int list;
  mffc_size : int -> int array -> int;
  min_vars : int;
}

let eval_with fanins op leaf =
  let rec go id =
    match leaf id with
    | Some v -> v
    | None ->
        if id = 0 then false
        else
          op id
            (Array.map
               (fun s -> go (S.node s) <> S.is_complement s)
               (fanins id))
  in
  go

let mig_inst name m =
  let module G = Mig.Graph in
  let reach = G.reachable m in
  let fanout = G.fanout_counts m in
  {
    name;
    is_gate = G.is_maj m;
    fanins = G.fanins m;
    fanout;
    live = (fun i -> reach.(i));
    eval =
      eval_with (G.fanins m) (fun _ v ->
          (v.(0) && v.(1)) || (v.(0) && v.(2)) || (v.(1) && v.(2)));
    enumerate = (fun ~k ~max_cuts -> Mig.Cut.enumerate ~k ~max_cuts m);
    cut_function = Mig.Cut.cut_function m;
    cone = Mig.Cut.cone m;
    mffc_size = Mig.Cut.mffc_size m ~fanout;
    min_vars = 3;
  }

let aig_inst a =
  let module A = Aig.Graph in
  let fanout = A.fanout_counts a in
  let fanins i = [| A.fanin0 a i; A.fanin1 a i |] in
  {
    name = "aig";
    is_gate = A.is_and a;
    fanins;
    fanout;
    live = (fun _ -> true);
    eval = eval_with fanins (fun _ v -> v.(0) && v.(1));
    enumerate = (fun ~k ~max_cuts -> Aig.Cut.enumerate ~k ~max_cuts a);
    cut_function = Aig.Cut.cut_function a;
    cone = Aig.Cut.cone a;
    mffc_size = Aig.Cut.mffc_size a ~fanout;
    min_vars = 0;
  }

let net_inst net =
  let fanout = N.fanout_counts net in
  let fanins i = match N.node net i with N.Gate (_, fs) -> fs | _ -> [||] in
  {
    name = "network";
    is_gate = (fun i -> match N.node net i with N.Gate _ -> true | _ -> false);
    fanins;
    fanout;
    live = (fun _ -> true);
    eval =
      eval_with fanins (fun i v ->
          match N.node net i with
          | N.Gate (N.And, _) -> v.(0) && v.(1)
          | N.Gate (N.Or, _) -> v.(0) || v.(1)
          | N.Gate (N.Xor, _) -> v.(0) <> v.(1)
          | N.Gate (N.Maj, _) ->
              (v.(0) && v.(1)) || (v.(0) && v.(2)) || (v.(1) && v.(2))
          | N.Gate (N.Mux, _) -> if v.(0) then v.(1) else v.(2)
          | _ -> assert false);
    enumerate = (fun ~k ~max_cuts -> Tech.Netcut.enumerate ~k ~max_cuts net);
    cut_function = Tech.Netcut.cut_function net;
    cone = Tech.Netcut.cone net;
    mffc_size = Tech.Netcut.mffc_size net ~fanout;
    min_vars = 3;
  }

(* Reference MFFC size: dereference the root's fanins and count every
   gate inside the cut whose last reference goes. *)
let deref_mffc inst root cut =
  let refs = Array.copy inst.fanout in
  let rec deref id =
    Array.fold_left
      (fun acc s ->
        let c = S.node s in
        if Array.mem c cut || not (inst.is_gate c) then acc
        else begin
          refs.(c) <- refs.(c) - 1;
          if refs.(c) = 0 then acc + 1 + deref c else acc
        end)
      0 (inst.fanins id)
  in
  1 + deref root

let rec strictly_sorted i c =
  i + 1 >= Array.length c || (c.(i) < c.(i + 1) && strictly_sorted (i + 1) c)

(* Every invariant of one instance's cuts at (k, max_cuts); the first
   violation is reported. *)
let check_inst ~k ~max_cuts inst =
  let cuts = inst.enumerate ~k ~max_cuts in
  let fail id fmt =
    Printf.ksprintf
      (fun s -> QCheck2.Test.fail_reportf "%s node %d: %s" inst.name id s)
      fmt
  in
  Array.iteri
    (fun id cs ->
      if id = 0 then (if cs <> [ [||] ] then fail id "constant cut set")
      else if inst.is_gate id && not (inst.live id) then
        (if cs <> [] then fail id "dead gate has cuts")
      else begin
        (match cs with
        | c :: _ when c = [| id |] -> ()
        | _ -> fail id "trivial cut not first");
        if List.length cs > max_cuts then fail id "%d cuts" (List.length cs);
        List.iter
          (fun c ->
            if not (strictly_sorted 0 c) then fail id "unsorted or duplicate leaf";
            if Array.length c > k then fail id "%d leaves" (Array.length c);
            if Array.mem 0 c then fail id "constant leaf";
            if inst.is_gate id && c <> [| id |] then begin
              let tt = inst.cut_function id c in
              let nv = max inst.min_vars (Array.length c) in
              if T.nvars tt <> nv then fail id "%d variables" (T.nvars tt);
              for m = 0 to (1 lsl nv) - 1 do
                let leaf l =
                  let rec find i =
                    if i = Array.length c then None
                    else if c.(i) = l then Some ((m lsr i) land 1 = 1)
                    else find (i + 1)
                  in
                  find 0
                in
                if T.get_bit tt m <> inst.eval leaf id then
                  fail id "cut function differs at minterm %d" m
              done;
              let cone = inst.cone id c in
              let mffc = inst.mffc_size id c in
              if mffc > List.length cone then fail id "mffc > cone";
              if mffc <> deref_mffc inst id c then
                fail id "mffc %d, dereferencing frees %d" mffc (deref_mffc inst id c)
            end)
          cs
      end)
    cuts;
  true

(* A random network, its MIG (also with two dead gates, which get no
   cuts) and its AIG. *)
let gen_graphs =
  QCheck2.Gen.(
    map3
      (fun seed inputs gates ->
        Helpers.random_network ~seed ~inputs ~gates ~outputs:4)
      (int_bound 10_000) (int_range 3 8) (int_range 5 60))

let with_dead_gates m =
  let module G = Mig.Graph in
  let pi = Array.of_list (List.map (fun id -> S.make id false) (G.pis m)) in
  let a = G.maj m pi.(0) (S.not_ pi.(1)) pi.(2) in
  ignore (G.maj m a (S.not_ pi.(0)) pi.(1));
  m

let instances net =
  [
    net_inst net;
    mig_inst "mig" (Mig.Convert.of_network net);
    mig_inst "mig with dead gates" (with_dead_gates (Mig.Convert.of_network net));
    aig_inst (Aig.Convert.of_network net);
  ]

let prop_cut_invariants =
  Helpers.qtest ~count:60 "qcheck: cut invariants on MIG, AIG and network"
    gen_graphs (fun net ->
      List.for_all
        (fun (k, max_cuts) ->
          List.for_all (check_inst ~k ~max_cuts) (instances net))
        [ (3, 8); (4, 8); (5, 3) ])

(* ----- reconvergent_cut against the Set-based greedy ----- *)

(* The greedy leaf selection as originally written with Set.Make(Int):
   repeatedly expand the leaf minimizing
   ((fanout = 1 ? 0 : 1), resulting cardinality), ties to the smallest
   leaf id, never past [max_leaves]. *)
let set_greedy ~is_gate ~fanins ~fanout ~max_leaves root =
  let module IS = Set.Make (Int) in
  let nonconst id = List.filter (fun i -> i <> 0) (fanins id) in
  let leaves = ref (IS.of_list (nonconst root)) in
  let continue_ = ref true in
  while !continue_ do
    let candidates =
      IS.elements !leaves
      |> List.filter is_gate
      |> List.map (fun id ->
             (id, IS.union (IS.remove id !leaves) (IS.of_list (nonconst id))))
      |> List.filter (fun (_, after) -> IS.cardinal after <= max_leaves)
    in
    let score (id, after) =
      ((if fanout.(id) = 1 then 0 else 1), IS.cardinal after)
    in
    match List.sort (fun a b -> compare (score a) (score b)) candidates with
    | [] -> continue_ := false
    | (_, after) :: _ -> leaves := after
  done;
  Array.of_list (IS.elements !leaves)

let prop_reconvergent_oracle =
  Helpers.qtest ~count:60 "qcheck: reconvergent_cut = Set-based greedy"
    gen_graphs (fun net ->
      let m = with_dead_gates (Mig.Convert.of_network net) in
      let a = Aig.Convert.of_network net in
      let mig_fanout = Mig.Graph.fanout_counts m in
      let aig_fanout = Aig.Graph.fanout_counts a in
      let node_ids fs = List.map S.node fs in
      List.for_all
        (fun max_leaves ->
          let ok = ref true in
          Mig.Graph.iter_live_majs m (fun id _ ->
              let got =
                Mig.Cut.reconvergent_cut m ~fanout:mig_fanout ~max_leaves id
              in
              let want =
                set_greedy ~is_gate:(Mig.Graph.is_maj m)
                  ~fanins:(fun i -> node_ids (Array.to_list (Mig.Graph.fanins m i)))
                  ~fanout:mig_fanout ~max_leaves id
              in
              if got <> want then ok := false);
          Aig.Graph.iter_ands a (fun id _ _ ->
              let got =
                Aig.Cut.reconvergent_cut a ~fanout:aig_fanout ~max_leaves id
              in
              let want =
                set_greedy ~is_gate:(Aig.Graph.is_and a)
                  ~fanins:(fun i ->
                    node_ids [ Aig.Graph.fanin0 a i; Aig.Graph.fanin1 a i ])
                  ~fanout:aig_fanout ~max_leaves id
              in
              if got <> want then ok := false);
          !ok)
        [ 4; 6; 10 ])

(* AIG enumeration polls its graph's budget, as MIG enumeration does:
   a deadline interrupts it, and without one it runs to the end. *)
let test_aig_poll () =
  let ctx = Lsutil.Ctx.create () in
  let net = (Benchmarks.Suite.find "C1355").Benchmarks.Suite.build () in
  let g = Aig.Convert.of_network ~ctx net in
  Alcotest.(check bool) "past one clock-check interval" true
    (Aig.Graph.num_nodes g > 256);
  let b = Lsutil.Ctx.budget ctx in
  Alcotest.check_raises "deadline interrupts enumeration"
    (Lsutil.Budget.Exhausted Lsutil.Budget.Deadline) (fun () ->
      Lsutil.Budget.with_budget b ~deadline_s:0.0 (fun () ->
          ignore (Aig.Cut.enumerate ~k:4 ~max_cuts:8 g)));
  Alcotest.(check int) "no deadline: every node" (Aig.Graph.num_nodes g)
    (Array.length (Aig.Cut.enumerate ~k:4 ~max_cuts:8 g))

let () =
  Alcotest.run "cut"
    [
      ( "substrate",
        [
          prop_cut_invariants;
          Alcotest.test_case "AIG enumeration polls the budget" `Quick
            test_aig_poll;
        ] );
      ("reconvergent cut", [ prop_reconvergent_oracle ]);
    ]
