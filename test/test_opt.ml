module M = Mig.Graph

(* quiet shared context for the flow calls in this file *)
let ctx = Lsutil.Ctx.create ()
module N = Network.Graph

let vars = [ "a"; "b"; "c"; "d"; "e"; "f" ]

let gen_mig =
  QCheck2.Gen.(
    map
      (fun terms -> Helpers.network_of_terms ~vars terms)
      (list_size (int_range 1 4) (Helpers.gen_term ~vars ~depth:4)))

let prop_size_sound =
  Helpers.qtest ~count:100 "qcheck: size sound and monotone" gen_mig
    (fun net ->
      let m = Mig.Convert.of_network net in
      let o = Helpers.opt `Size m in
      M.size o <= M.size m && Mig.Equiv.to_network_equiv ~seed:0x51 o net)

let prop_depth_sound =
  Helpers.qtest ~count:60 "qcheck: depth sound and monotone" gen_mig
    (fun net ->
      let m = Mig.Convert.of_network net in
      let o = Helpers.opt `Depth m in
      M.depth o <= M.depth m && Mig.Equiv.to_network_equiv ~seed:0x52 o net)

let prop_activity_sound =
  Helpers.qtest ~count:60 "qcheck: activity sound and monotone" gen_mig
    (fun net ->
      let m = Mig.Convert.of_network net in
      let o = Helpers.opt `Activity m in
      Mig.Activity.total o <= Mig.Activity.total m +. 1e-9
      && Mig.Equiv.to_network_equiv ~seed:0x53 o net)

(* known results on named circuits *)

let flat name =
  N.flatten_aoig ((Benchmarks.Suite.find name).Benchmarks.Suite.build ())

let test_adder_depth () =
  let net = flat "my_adder" in
  let o = Helpers.opt `Depth (Mig.Convert.of_network net) in
  Alcotest.(check bool) "16-bit adder below 9 levels" true (M.depth o <= 9);
  Alcotest.(check bool) "equivalent" true
    (Mig.Equiv.to_network_equiv ~seed:0x54 o net)

let test_counter_depth () =
  let net = flat "count" in
  let o = Helpers.opt `Depth (Mig.Convert.of_network net) in
  Alcotest.(check bool) "counter below 10 levels" true (M.depth o <= 10);
  Alcotest.(check bool) "equivalent" true
    (Mig.Equiv.to_network_equiv ~seed:0x55 o net)

let test_mig_beats_aig_depth_on_datapath () =
  List.iter
    (fun name ->
      let net = (Benchmarks.Suite.find name).Benchmarks.Suite.build () in
      let _, mig = Flow.mig_opt ctx net in
      let _, aig = Flow.aig_opt ctx net in
      Alcotest.(check bool)
        (Printf.sprintf "MIG depth < AIG depth on %s" name)
        true
        (mig.Flow.depth < aig.Flow.depth))
    [ "my_adder"; "count"; "cla" ]

let test_size_opt_keeps_interface () =
  let net = flat "b9" in
  let m = Mig.Convert.of_network net in
  let o = Helpers.opt `Size m in
  Alcotest.(check int) "pis kept" (M.num_pis m) (M.num_pis o);
  Alcotest.(check int) "pos kept" (M.num_pos m) (M.num_pos o)

let test_activity_example () =
  (* Fig. 2(d) quantities *)
  let probs = function "x" -> 0.5 | _ -> 0.1 in
  let g = M.create () in
  let x = M.add_pi g "x" and y = M.add_pi g "y" in
  let z = M.add_pi g "z" and w = M.add_pi g "w" in
  M.add_po g "k" (M.maj g x y (M.maj g (Network.Signal.not_ x) z w));
  Alcotest.(check (float 1e-3)) "initial SW" 0.18
    (Mig.Activity.total ~pi_prob:probs g);
  (* the activity goal's script, ranked by activity under the skewed
     input probabilities rather than the default p = 0.5 *)
  let o, _ =
    Flow.Engine.run
      ~passes:(Flow.Engine.of_goal `Activity)
      ~cost:(fun g ->
        (Mig.Activity.total ~pi_prob:probs g, float_of_int (M.size g)))
      g
  in
  Alcotest.(check bool) "halved as in the paper" true
    (Mig.Activity.total ~pi_prob:probs o < 0.1);
  Alcotest.(check bool) "equivalent" true (Mig.Equiv.migs ~seed:0x56 g o)

let test_effort_monotone_interface () =
  let net = flat "C1908" in
  let m = Mig.Convert.of_network net in
  let d1 = M.depth (Helpers.opt ~effort:1 `Depth m) in
  let d4 = M.depth (Helpers.opt ~effort:4 `Depth m) in
  Alcotest.(check bool) "more effort never hurts depth" true (d4 <= d1)

let () =
  Alcotest.run "opt"
    [
      ( "properties",
        [ prop_size_sound; prop_depth_sound; prop_activity_sound ] );
      ( "circuits",
        [
          Alcotest.test_case "adder depth" `Quick test_adder_depth;
          Alcotest.test_case "counter depth" `Quick test_counter_depth;
          Alcotest.test_case "MIG vs AIG on datapath" `Slow
            test_mig_beats_aig_depth_on_datapath;
          Alcotest.test_case "interface stability" `Quick
            test_size_opt_keeps_interface;
          Alcotest.test_case "Fig. 2(d) activity" `Quick test_activity_example;
          Alcotest.test_case "effort monotonicity" `Slow
            test_effort_monotone_interface;
        ] );
    ]
