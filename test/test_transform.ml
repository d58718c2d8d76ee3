module M = Mig.Graph
module T = Mig.Transform
module N = Network.Graph

let vars = [ "a"; "b"; "c"; "d"; "e"; "f" ]

let gen_mig =
  QCheck2.Gen.(
    map
      (fun terms -> Helpers.network_of_terms ~vars terms)
      (list_size (int_range 1 4) (Helpers.gen_term ~vars ~depth:4)))

(* every pass must preserve the represented function *)
let pass_sound name pass =
  Helpers.qtest ~count:150 name gen_mig (fun net ->
      let m = Mig.Convert.of_network net in
      let m' = pass m in
      Mig.Equiv.to_network_equiv ~seed:0x50 m' net)

let prop_eliminate = pass_sound "qcheck: eliminate sound" T.eliminate
let prop_push_up = pass_sound "qcheck: push_up sound" T.push_up
let prop_relevance = pass_sound "qcheck: relevance sound" T.relevance

let prop_substitution =
  pass_sound "qcheck: substitution sound" (T.substitution ~on_critical:false)

let prop_patterns_depth =
  pass_sound "qcheck: pattern rewriting (depth) sound" T.rewrite_patterns

let prop_patterns_size =
  pass_sound "qcheck: pattern rewriting (size) sound"
    (T.rewrite_patterns ~mode:`Size)

let prop_refactor = pass_sound "qcheck: refactor sound" T.refactor
let prop_reshape_assoc = pass_sound "qcheck: reshape_assoc sound" T.reshape_assoc

let prop_reshape_no_bigger =
  Helpers.qtest ~count:100 "qcheck: reshape_assoc never grows" gen_mig
    (fun net ->
      let m = Mig.Convert.of_network net in
      M.size (T.reshape_assoc m) <= M.size m)

let prop_push_up_no_deeper =
  Helpers.qtest ~count:150 "qcheck: push_up never deepens" gen_mig (fun net ->
      let m = Mig.Convert.of_network net in
      M.depth (T.push_up m) <= M.depth m)

let prop_refactor_no_bigger =
  Helpers.qtest ~count:100 "qcheck: refactor never grows" gen_mig (fun net ->
      let m = Mig.Convert.of_network net in
      M.size (T.refactor m) <= M.size m)

(* targeted unit cases *)

let test_eliminate_distributivity () =
  (* M(M(x,y,u), M(x,y,v), z) collapses to M(x,y,M(u,v,z)) *)
  let g = M.create () in
  let x = M.add_pi g "x" and y = M.add_pi g "y" in
  let u = M.add_pi g "u" and v = M.add_pi g "v" in
  let z = M.add_pi g "z" in
  let a = M.maj g x y u and b = M.maj g x y v in
  M.add_po g "h" (M.maj g a b z);
  Alcotest.(check int) "three nodes before" 3 (M.size g);
  let g' = T.eliminate g in
  Alcotest.(check int) "two nodes after Ω.D R->L" 2 (M.size g');
  Alcotest.(check bool) "equivalent" true (Mig.Equiv.migs ~seed:61 g g')

let test_push_up_carry_chain () =
  (* a majority (carry) chain flattens towards log depth *)
  let g = M.create () in
  let c0 = M.add_pi g "c0" in
  let carry = ref c0 in
  for i = 0 to 15 do
    let a = M.add_pi g (Printf.sprintf "a%d" i) in
    let b = M.add_pi g (Printf.sprintf "b%d" i) in
    carry := M.maj g a b !carry
  done;
  M.add_po g "cout" !carry;
  Alcotest.(check int) "chain depth" 16 (M.depth g);
  let opt = Helpers.opt `Depth g in
  Alcotest.(check bool) "flattened below half" true (M.depth opt <= 8);
  Alcotest.(check bool) "equivalent" true (Mig.Equiv.migs ~seed:62 g opt)

let test_patterns_collapse_maj () =
  (* the AOIG carry ab + c(a+b) becomes a single majority node *)
  let net = N.create () in
  let a = N.add_pi net "a" and b = N.add_pi net "b" and c = N.add_pi net "c" in
  N.add_po net "carry"
    (N.or_ net (N.and_ net a b) (N.and_ net c (N.or_ net a b)));
  let m = Mig.Convert.of_network (N.flatten_aoig net) in
  Alcotest.(check int) "four transposed nodes" 4 (M.size m);
  let m' = T.rewrite_patterns ~mode:`Size m in
  Alcotest.(check int) "one majority node" 1 (M.size m');
  Alcotest.(check bool) "equivalent" true
    (Mig.Equiv.to_network_equiv ~seed:63 m' net)

let test_patterns_collapse_xor3 () =
  let net = N.create () in
  let a = N.add_pi net "a" and b = N.add_pi net "b" and c = N.add_pi net "c" in
  N.add_po net "p" (N.xor_ net (N.xor_ net a b) c);
  let flat = N.flatten_aoig net in
  let m = Mig.Convert.of_network flat in
  let m' = T.rewrite_patterns m in
  Alcotest.(check bool) "two levels" true (M.depth m' <= 2);
  Alcotest.(check bool) "equivalent" true
    (Mig.Equiv.to_network_equiv ~seed:64 m' flat)

let test_relevance_simplifies_reconvergence () =
  (* Fig. 2(a): h = M(x, M(x,z',w), M(x,y,z)) is just x *)
  let g = M.create () in
  let x = M.add_pi g "x" and y = M.add_pi g "y" in
  let z = M.add_pi g "z" and w = M.add_pi g "w" in
  let inner1 = M.maj g x (Network.Signal.not_ z) w in
  let inner2 = M.maj g x y z in
  M.add_po g "h" (M.maj g x inner1 inner2);
  let opt = Helpers.opt `Size g in
  Alcotest.(check int) "reduced to zero nodes" 0 (M.size opt);
  Alcotest.(check bool) "equivalent" true (Mig.Equiv.migs ~seed:65 g opt)

let test_criticality_protects_size () =
  (* push_up must not restructure away from the critical path *)
  let net =
    N.flatten_aoig
      (Helpers.random_network ~seed:8 ~inputs:12 ~gates:150 ~outputs:6)
  in
  let m = Mig.Convert.of_network net in
  let m' = T.push_up m in
  Alcotest.(check bool) "bounded growth" true
    (float_of_int (M.size m') <= (1.25 *. float_of_int (M.size m)) +. 8.0)

(* Deep-recursion regression (robustness PR): a ~500k-node linear maj
   chain used to blow the OCaml stack in the recursive PO-DFS of
   cleanup/compact and the transform rebuilds.  With the explicit
   Istack-based traversals the whole pipeline must survive. *)
let test_deep_chain () =
  let n = 500_000 in
  let g = M.create () in
  let pis = Array.init 8 (fun i -> M.add_pi g (Printf.sprintf "x%d" i)) in
  let s = ref pis.(0) in
  for i = 1 to n do
    let a = pis.(i mod 8) in
    let b =
      let b = pis.((i * 3 + 1) mod 8) in
      if i land 1 = 0 then Network.Signal.not_ b else b
    in
    s := M.maj g a b !s
  done;
  M.add_po g "y" !s;
  let cleaned = M.cleanup g in
  let compacted = M.compact g in
  Alcotest.(check int) "compact agrees with cleanup" (M.size cleaned)
    (M.size compacted);
  let elim = T.eliminate cleaned in
  Alcotest.(check bool) "eliminate no bigger" true
    (M.size elim <= M.size cleaned);
  let pushed = T.push_up elim in
  Alcotest.(check bool) "push_up shallower or equal" true
    (M.depth pushed <= M.depth elim)

let () =
  Alcotest.run "transform"
    [
      ( "soundness",
        [
          prop_eliminate;
          prop_push_up;
          prop_relevance;
          prop_substitution;
          prop_patterns_depth;
          prop_patterns_size;
          prop_refactor;
          prop_reshape_assoc;
        ] );
      ( "guarantees",
        [
          prop_push_up_no_deeper;
          prop_refactor_no_bigger;
          prop_reshape_no_bigger;
          Alcotest.test_case "criticality bounds growth" `Quick
            test_criticality_protects_size;
        ] );
      ( "cases",
        [
          Alcotest.test_case "Ω.D R->L elimination" `Quick
            test_eliminate_distributivity;
          Alcotest.test_case "carry-chain push-up" `Quick test_push_up_carry_chain;
          Alcotest.test_case "majority pattern collapse" `Quick
            test_patterns_collapse_maj;
          Alcotest.test_case "parity pattern collapse" `Quick
            test_patterns_collapse_xor3;
          Alcotest.test_case "Fig. 2(a) reconvergence" `Quick
            test_relevance_simplifies_reconvergence;
        ] );
      ( "scale",
        [ Alcotest.test_case "500k-node chain" `Slow test_deep_chain ] );
    ]
