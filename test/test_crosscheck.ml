(* Cross-tool fuzzing: the same random function is pushed through all
   optimizers and representations, then every result is compared
   pairwise — by exact BDD equivalence where feasible.  This is the
   strongest end-to-end soundness net in the suite. *)

module N = Network.Graph

let exact_equal net_a net_b =
  (* build both in one manager with the same order, compare roots *)
  let man = Bdd.Robdd.manager ~node_limit:1_000_000 () in
  let order = Bdd.Builder.dfs_order net_a in
  let name_of = Array.map (N.pi_name net_a) order in
  let order_b =
    let tbl = Hashtbl.create 32 in
    List.iter (fun id -> Hashtbl.replace tbl (N.pi_name net_b id) id) (N.pis net_b);
    Array.map (fun n -> Hashtbl.find tbl n) name_of
  in
  let ra = Bdd.Builder.of_network man ~order net_a in
  let rb = Bdd.Builder.of_network man ~order:order_b net_b in
  let sort = List.sort compare in
  List.for_all2 (fun (n1, b1) (n2, b2) -> n1 = n2 && b1 = b2) (sort ra) (sort rb)

let crosscheck seed =
  let net =
    N.flatten_aoig
      (Helpers.random_network ~seed ~inputs:10 ~gates:110 ~outputs:5)
  in
  let results = ref [ ("input", net) ] in
  let add name n = results := (name, n) :: !results in
  (* MIG flows *)
  let m = Mig.Convert.of_network net in
  add "mig-depth" (Mig.Convert.to_network (Helpers.opt `Depth m));
  add "mig-size" (Mig.Convert.to_network (Helpers.opt `Size m));
  add "mig-activity"
    (Mig.Convert.to_network (Helpers.opt ~effort:1 `Activity m));
  (* AIG flows *)
  let a = Aig.Convert.of_network net in
  add "aig-resyn" (Aig.Convert.to_network (Aig.Resyn.run ~effort:1 a));
  add "aig-area" (Aig.Convert.to_network (Aig.Resyn.size_only ~effort:1 a));
  (* BDS *)
  (match Bdd.Decompose.run ~seed net with
  | Some d -> add "bds" d
  | None -> ());
  (* round-trips through the file formats *)
  add "blif"
    (Logic_io.Blif.read (Format.asprintf "%a" (fun f n -> Logic_io.Blif.write f n) net));
  add "verilog"
    (Logic_io.Verilog.read
       (Format.asprintf "%a" (fun f n -> Logic_io.Verilog.write f n) net));
  (* pairwise against the input *)
  List.iter
    (fun (name, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %s == input (exact)" seed name)
        true (exact_equal net n))
    !results

let () =
  Alcotest.run "crosscheck"
    [
      ( "all optimizers, exact BDD equivalence",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick
              (fun () -> crosscheck seed))
          [ 1001; 2002; 3003; 4004; 5005; 6006 ] );
    ]
