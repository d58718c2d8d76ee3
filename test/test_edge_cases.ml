(* Degenerate inputs: constants, wires, empty logic — the cases that
   crash tools in the field. *)

module N = Network.Graph

(* quiet shared context for the flow calls in this file *)
let ctx = Lsutil.Ctx.create ()
module S = Network.Signal

let test_constant_po () =
  let net = N.create () in
  let _a = N.add_pi net "a" in
  N.add_po net "zero" (N.const0 net);
  N.add_po net "one" (N.const1 net);
  (* every flow must survive *)
  let m, r = Flow.mig_opt ctx net in
  Alcotest.(check int) "mig empty" 0 r.Flow.size;
  Alcotest.(check bool) "mig equivalent" true
    (Mig.Equiv.to_network_equiv ~seed:1 m (N.flatten_aoig net));
  let _, ar = Flow.aig_opt ctx net in
  Alcotest.(check int) "aig empty" 0 ar.Flow.size;
  let mapped = Tech.Mapper.map_network net in
  (* a constant-1 output costs at most a tie-high inverter *)
  Alcotest.(check bool) "at most one INV for constants" true
    (mapped.Tech.Mapper.area <= Tech.Cells.inv.Tech.Cells.area +. 1e-9)

let test_wire_po () =
  let net = N.create () in
  let a = N.add_pi net "a" in
  N.add_po net "y" a;
  N.add_po net "yn" (S.not_ a);
  let m, _ = Flow.mig_opt ctx net in
  Alcotest.(check int) "wire mig" 0 (Mig.Graph.size m);
  let mapped, ok = Tech.Mapper.map_and_verify ~seed:2 net in
  Alcotest.(check bool) "wire cover ok" true ok;
  (* the complemented output needs exactly one inverter *)
  Alcotest.(check (list (pair string int))) "one INV" [ ("INV", 1) ]
    mapped.Tech.Mapper.cell_counts

let test_blif_roundtrip_constants () =
  let net = N.create () in
  let a = N.add_pi net "a" in
  N.add_po net "k1" (N.const1 net);
  N.add_po net "w" a;
  let text = Format.asprintf "%a" (fun f n -> Logic_io.Blif.write f n) net in
  let back = Logic_io.Blif.read text in
  Alcotest.(check bool) "constant/wire blif" true
    (Network.Simulate.equivalent ~seed:3 net back)

let test_verilog_roundtrip_constants () =
  let net = N.create () in
  let a = N.add_pi net "a" in
  N.add_po net "k0" (N.const0 net);
  N.add_po net "w" (S.not_ a);
  let text = Format.asprintf "%a" (fun f n -> Logic_io.Verilog.write f n) net in
  let back = Logic_io.Verilog.read text in
  Alcotest.(check bool) "constant/wire verilog" true
    (Network.Simulate.equivalent ~seed:4 net back)

let test_duplicate_po_signal () =
  let net = N.create () in
  let a = N.add_pi net "a" and b = N.add_pi net "b" in
  let x = N.and_ net a b in
  N.add_po net "y1" x;
  N.add_po net "y2" x;
  N.add_po net "y3" (S.not_ x);
  let m, _ = Flow.mig_opt ctx net in
  Alcotest.(check int) "single shared node" 1 (Mig.Graph.size m);
  Alcotest.(check bool) "fanout to POs preserved" true
    (Mig.Equiv.to_network_equiv ~seed:5 m (N.flatten_aoig net))

let test_empty_network () =
  let net = N.create () in
  let _ = N.add_pi net "a" in
  (* no POs at all *)
  let m = Mig.Convert.of_network net in
  Alcotest.(check int) "no nodes" 0 (Mig.Graph.size m);
  Alcotest.(check int) "pis kept" 1 (Mig.Graph.num_pis m);
  let o = Helpers.opt `Depth m in
  Alcotest.(check int) "opt of nothing" 0 (Mig.Graph.depth o)

let test_deep_chain_no_stack_overflow () =
  (* recursion in the rebuild passes must survive deep graphs *)
  let g = Mig.Graph.create () in
  let a = Mig.Graph.add_pi g "a" and b = Mig.Graph.add_pi g "b" in
  let acc = ref a in
  for _i = 1 to 30_000 do
    acc := Mig.Graph.maj g !acc b (Mig.Graph.const1 g)
  done;
  Mig.Graph.add_po g "y" !acc;
  (* or-chain folds: M(x,b,1) = x|b; strash keeps it linear *)
  let o = Mig.Transform.eliminate g in
  Alcotest.(check bool) "survives deep recursion" true (Mig.Graph.size o >= 0)

let () =
  Alcotest.run "edge_cases"
    [
      ( "degenerate circuits",
        [
          Alcotest.test_case "constant outputs" `Quick test_constant_po;
          Alcotest.test_case "wire outputs" `Quick test_wire_po;
          Alcotest.test_case "blif constants" `Quick test_blif_roundtrip_constants;
          Alcotest.test_case "verilog constants" `Quick
            test_verilog_roundtrip_constants;
          Alcotest.test_case "duplicated PO drivers" `Quick
            test_duplicate_po_signal;
          Alcotest.test_case "no outputs" `Quick test_empty_network;
          Alcotest.test_case "deep chains" `Slow
            test_deep_chain_no_stack_overflow;
        ] );
    ]
