module M = Mig.Graph
module N = Network.Graph
module S = Network.Signal
module T = Truthtable

let test_constants_pis () =
  let g = M.create () in
  Alcotest.(check bool) "const1 = not const0" true
    (S.equal (M.const1 g) (S.not_ (M.const0 g)));
  let a = M.add_pi g "a" in
  Alcotest.(check string) "pi name" "a" (M.pi_name g (S.node a));
  Alcotest.(check int) "no majority nodes yet" 0 (M.size g)

let test_omega_m_folding () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  (* the Ω.M cases fold at construction *)
  Alcotest.(check bool) "M(x,x,z) = x" true (S.equal a (M.maj g a a c));
  Alcotest.(check bool) "M(x,x',z) = z" true
    (S.equal c (M.maj g a (S.not_ a) c));
  Alcotest.(check bool) "M(0,x,1) = x" true
    (S.equal b (M.maj g (M.const0 g) b (M.const1 g)));
  Alcotest.(check int) "nothing allocated" 0 (M.num_allocated_majs g);
  ignore (M.maj g a b c);
  Alcotest.(check int) "one node" 1 (M.num_allocated_majs g)

let test_normal_form () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  (* Ω.I: at most one complemented fanin after normalization *)
  let s = M.maj g (S.not_ a) (S.not_ b) c in
  Alcotest.(check bool) "two complements push to output" true
    (S.is_complement s);
  let fs = M.fanins g (S.node s) in
  let ninv =
    Array.fold_left (fun n f -> if S.is_complement f then n + 1 else n) 0 fs
  in
  Alcotest.(check bool) "at most one complemented fanin" true (ninv <= 1);
  (* Ω.C: orderings share the same node *)
  let t = M.maj g c (S.not_ b) (S.not_ a) in
  Alcotest.(check bool) "commutative strash" true (S.equal s t);
  Alcotest.(check int) "single node for all orderings" 1 (M.num_allocated_majs g)

let test_fanins_of_view () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  let s = M.maj g a b c in
  (match M.fanins_of g (S.not_ s) with
  | Some fs ->
      Array.iter
        (fun f ->
          Alcotest.(check bool) "Ω.I view complements fanins" true
            (S.is_complement f))
        fs
  | None -> Alcotest.fail "expected fanins");
  Alcotest.(check bool) "PI has no fanins" true (M.fanins_of g a = None)

let test_and_or_as_maj () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" in
  let conj = M.and_ g a b in
  (* Theorem 3.1: AND is a majority node with constant third input *)
  (match M.fanins_of g conj with
  | Some fs ->
      Alcotest.(check bool) "third input constant" true
        (Array.exists (fun f -> S.node f = 0) fs)
  | None -> Alcotest.fail "expected a node");
  N.iter_gates (Mig.Convert.to_network g) (fun _ _ _ -> ())

let test_xor_forms () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  M.add_po g "x2" (M.xor_ g a b);
  M.add_po g "x3" (M.xor3 g a b c);
  Alcotest.(check int) "depth-2 parity forms" 2 (M.depth g);
  let tts = Network.Simulate.truthtables (Mig.Convert.to_network g) in
  let va = T.var 3 0 and vb = T.var 3 1 and vc = T.var 3 2 in
  Alcotest.check Helpers.check_tt "xor2 function" (T.xor_ va vb)
    (List.assoc "x2" tts);
  Alcotest.check Helpers.check_tt "xor3 function"
    (T.xor_ (T.xor_ va vb) vc)
    (List.assoc "x3" tts)

let test_cleanup_mig () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  let keep = M.maj g a b c in
  let _dead = M.maj g a b (S.not_ c) in
  M.add_po g "y" keep;
  let g' = M.cleanup g in
  Alcotest.(check int) "dead removed" 1 (M.size g');
  Alcotest.(check bool) "equivalent" true (Mig.Equiv.migs ~seed:3 g g')

(* metrics must see through dead nodes: a graph with unreachable majs
   reports the same size/activity as its cleanup *)
let test_dead_node_metrics () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  let keep = M.maj g a b c in
  (* two dead nodes, one feeding the other *)
  let d1 = M.maj g a b (S.not_ c) in
  let _d2 = M.maj g d1 (S.not_ a) c in
  M.add_po g "y" keep;
  Alcotest.(check int) "three allocated" 3 (M.num_allocated_majs g);
  let g' = M.cleanup g in
  Alcotest.(check int) "size ignores dead nodes" (M.size g') (M.size g);
  Alcotest.(check int) "depth ignores dead nodes" (M.depth g') (M.depth g);
  Alcotest.(check (float 1e-12)) "activity ignores dead nodes"
    (Mig.Activity.total g') (Mig.Activity.total g);
  (* fanout must not count edges out of dead nodes: only the kept node
     and the PO reference the PIs *)
  let fo = M.fanout_counts g in
  Alcotest.(check int) "fanout of a" 1 fo.(S.node a);
  Alcotest.(check int) "fanout of kept node" 1 fo.(S.node keep);
  (* the cache revalidates when the graph grows *)
  M.add_po g "z" d1;
  Alcotest.(check int) "size after reviving d1" 2 (M.size g)

let test_conversions () =
  let net = Helpers.random_network ~seed:99 ~inputs:9 ~gates:70 ~outputs:5 in
  let m = Mig.Convert.of_network net in
  Alcotest.(check bool) "network -> MIG" true
    (Mig.Equiv.to_network_equiv ~seed:4 m net);
  let a = Mig.Convert.to_aig m in
  Alcotest.(check bool) "MIG -> AIG" true
    (Network.Simulate.equivalent ~seed:5 net (Aig.Convert.to_network a));
  let m2 = Mig.Convert.of_aig a in
  Alcotest.(check bool) "AIG -> MIG" true (Mig.Equiv.migs ~seed:6 m m2)

let test_aig_transposition_size () =
  (* Corollary 3.2: AIG nodes transpose one-for-one *)
  let net =
    N.flatten_aoig (Helpers.random_network ~seed:7 ~inputs:8 ~gates:50 ~outputs:4)
  in
  let a = Aig.Convert.of_network net in
  let m = Mig.Convert.of_aig a in
  Alcotest.(check bool) "MIG size <= AIG size" true
    (M.size m <= Aig.Graph.size a)

let test_levels_mig () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  let inner = M.maj g a b c in
  let outer = M.maj g inner a b in
  M.add_po g "y" outer;
  Alcotest.(check int) "depth" 2 (M.depth g);
  let lv = M.levels g in
  Alcotest.(check int) "inner level" 1 lv.(S.node inner)

let test_equiv_by_bdd () =
  let net = Helpers.random_network ~seed:12 ~inputs:8 ~gates:60 ~outputs:4 in
  let m = Mig.Convert.of_network net in
  let opt = Helpers.opt `Size m in
  Alcotest.(check bool) "BDD equivalence" true (Mig.Equiv.by_bdd m opt)

let test_activity_formula () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  M.add_po g "y" (M.maj g a b c);
  (* p(maj of three independent 0.5 inputs) = 0.5, SW = 0.25 *)
  Alcotest.(check (float 1e-9)) "balanced maj activity" 0.25
    (Mig.Activity.total g);
  let skew = Mig.Activity.total ~pi_prob:(fun _ -> 0.1) g in
  (* p = 3*0.01 - 2*0.001 = 0.028; SW = 0.028*0.972 *)
  Alcotest.(check (float 1e-9)) "skewed maj activity" (0.028 *. 0.972) skew

(* structural invariant: every node is in the Ω.I/Ω.C/Ω.M normal form *)
let normal_form_ok g =
  let ok = ref true in
  M.iter_majs g (fun _ fs ->
      let ninv =
        Array.fold_left (fun n f -> if S.is_complement f then n + 1 else n) 0 fs
      in
      if ninv > 1 then ok := false;
      (* sorted, and no foldable pair survived *)
      if not (S.compare fs.(0) fs.(1) <= 0 && S.compare fs.(1) fs.(2) <= 0)
      then ok := false;
      for i = 0 to 2 do
        for j = i + 1 to 2 do
          if S.equal fs.(i) fs.(j) || S.equal fs.(i) (S.not_ fs.(j)) then
            ok := false
        done
      done);
  !ok

let prop_normal_form_after_opt =
  Helpers.qtest ~count:80 "qcheck: optimizers preserve the normal form"
    QCheck2.Gen.(
      list_size (int_range 1 3)
        (Helpers.gen_term ~vars:[ "a"; "b"; "c"; "d"; "e" ] ~depth:4))
    (fun terms ->
      let net =
        Helpers.network_of_terms ~vars:[ "a"; "b"; "c"; "d"; "e" ] terms
      in
      let m = Mig.Convert.of_network net in
      normal_form_ok m
      && normal_form_ok (Helpers.opt ~effort:1 `Depth m)
      && normal_form_ok (Helpers.opt ~effort:1 `Size m))

(* ----- differential check of the packed construction core -----

   A deliberately naive reference implementation of the maj
   normalization and structural hashing: [List.sort] for Ω.C, boxed
   (int * int * int) Hashtbl keys for the strash.  Replaying the same
   random construction stream against both must produce bit-identical
   graphs — same returned signal at every call, same node count, same
   stored fanin triples. *)

type ref_strash = {
  rtbl : (int * int * int, int) Hashtbl.t;
  rfan : (int, int * int * int) Hashtbl.t;
  mutable rnext : int;
}

let ref_not s = s lxor 1

(* mirror of Graph.fold_m's case order *)
let ref_fold a b c =
  if a = b then a
  else if a = c then a
  else if b = c then b
  else if a = ref_not b then c
  else if a = ref_not c then b
  else if b = ref_not c then a
  else -1

let ref_maj st a b c =
  let folded = ref_fold a b c in
  if folded >= 0 then folded
  else begin
    let ninv = (a land 1) + (b land 1) + (c land 1) in
    let inv = ninv >= 2 in
    let a = if inv then ref_not a else a
    and b = if inv then ref_not b else b
    and c = if inv then ref_not c else c in
    let key =
      match List.sort compare [ a; b; c ] with
      | [ x; y; z ] -> (x, y, z)
      | _ -> assert false
    in
    let id =
      match Hashtbl.find_opt st.rtbl key with
      | Some id -> id
      | None ->
          let id = st.rnext in
          st.rnext <- id + 1;
          Hashtbl.add st.rtbl key id;
          Hashtbl.add st.rfan id key;
          id
    in
    (id lsl 1) lor if inv then 1 else 0
  end

let prop_strash_matches_reference =
  Helpers.qtest ~count:60 "qcheck: packed strash == sort+Hashtbl reference"
    QCheck2.Gen.(int_bound 0x3fffffff)
    (fun seed ->
      let g = M.create () in
      let n_pis = 6 in
      let pool = Array.make 256 ((M.const0 g : S.t :> int)) in
      for i = 0 to n_pis - 1 do
        pool.(i) <- (M.add_pi g (Printf.sprintf "x%d" i) : S.t :> int)
      done;
      let st =
        { rtbl = Hashtbl.create 64; rfan = Hashtbl.create 64; rnext = n_pis + 1 }
      in
      let rng = Lsutil.Rng.create seed in
      let filled = ref n_pis in
      let pick () =
        let s = pool.(Lsutil.Rng.int rng !filled) in
        if Lsutil.Rng.bool rng then ref_not s else s
      in
      let ok = ref true in
      for _ = 1 to 400 do
        let a = pick () and b = pick () and c = pick () in
        let got =
          (M.maj g (S.unsafe_of_int a) (S.unsafe_of_int b) (S.unsafe_of_int c)
            : S.t
            :> int)
        in
        let want = ref_maj st a b c in
        if got <> want then ok := false;
        if !filled < Array.length pool then begin
          pool.(!filled) <- got;
          incr filled
        end
      done;
      (* identical node count and identical stored triples *)
      if M.num_nodes g <> st.rnext then ok := false;
      Hashtbl.iter
        (fun id key -> if M.raw_fanins g id <> key then ok := false)
        st.rfan;
      !ok)

(* compact is documented to be bit-identical to cleanup on well-formed
   graphs, including in the presence of dead nodes *)
let migs_identical a b =
  M.num_nodes a = M.num_nodes b
  && M.pis a = M.pis b
  && List.for_all (fun id -> M.pi_name a id = M.pi_name b id) (M.pis a)
  && List.length (M.pos a) = List.length (M.pos b)
  && List.for_all2
       (fun (na, sa) (nb, sb) -> na = nb && S.equal sa sb)
       (M.pos a) (M.pos b)
  && List.for_all
       (* sentinel slots included: PI/const markers must line up too *)
       (fun id -> M.raw_fanins a id = M.raw_fanins b id)
       (List.init (M.num_nodes a) Fun.id)

let prop_compact_equals_cleanup =
  Helpers.qtest ~count:80 "qcheck: compact == cleanup bit-for-bit"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 3)
           (Helpers.gen_term ~vars:[ "a"; "b"; "c"; "d" ] ~depth:4))
        (int_bound 0x3fffffff))
    (fun (terms, seed) ->
      let net = Helpers.network_of_terms ~vars:[ "a"; "b"; "c"; "d" ] terms in
      let m = Mig.Convert.of_network net in
      (* grow some junk off the PIs so the PO cone is a strict subset *)
      let rng = Lsutil.Rng.create seed in
      let pis = Array.of_list (M.pis m) in
      let pick () =
        let s = S.make pis.(Lsutil.Rng.int rng (Array.length pis)) false in
        if Lsutil.Rng.bool rng then S.not_ s else s
      in
      for _ = 1 to 5 do
        ignore (M.maj m (pick ()) (pick ()) (pick ()))
      done;
      migs_identical (M.compact m) (M.cleanup m))

let prop_activity_matches_network =
  Helpers.qtest ~count:100 "qcheck: MIG activity equals converted-network activity"
    (Helpers.gen_term ~vars:[ "a"; "b"; "c"; "d" ] ~depth:4)
    (fun t ->
      let net = Helpers.network_of_terms ~vars:[ "a"; "b"; "c"; "d" ] [ t ] in
      let m = Mig.Convert.of_network net in
      (* the converted network has exactly one gate per majority node,
         so the two activity sums must agree *)
      let a_mig = Mig.Activity.total m in
      let a_net = Network.Metrics.activity (Mig.Convert.to_network m) in
      abs_float (a_mig -. a_net) < 1e-9)

let () =
  Alcotest.run "mig"
    [
      ( "graph",
        [
          Alcotest.test_case "constants and PIs" `Quick test_constants_pis;
          Alcotest.test_case "Ω.M folding" `Quick test_omega_m_folding;
          Alcotest.test_case "normal form (Ω.I, Ω.C)" `Quick test_normal_form;
          Alcotest.test_case "Ω.I fanin view" `Quick test_fanins_of_view;
          Alcotest.test_case "AND/OR are majorities" `Quick test_and_or_as_maj;
          Alcotest.test_case "parity forms" `Quick test_xor_forms;
          Alcotest.test_case "cleanup" `Quick test_cleanup_mig;
          Alcotest.test_case "dead-node metrics" `Quick test_dead_node_metrics;
          Alcotest.test_case "levels" `Quick test_levels_mig;
        ] );
      ( "convert",
        [
          Alcotest.test_case "roundtrips" `Quick test_conversions;
          Alcotest.test_case "AIG transposition (Cor. 3.2)" `Quick
            test_aig_transposition_size;
        ] );
      ( "equiv",
        [ Alcotest.test_case "BDD-based check" `Quick test_equiv_by_bdd ] );
      ( "activity",
        [ Alcotest.test_case "probability formula" `Quick test_activity_formula ] );
      ( "invariants",
        [
          prop_normal_form_after_opt;
          prop_activity_matches_network;
          prop_strash_matches_reference;
          prop_compact_equals_cleanup;
        ] );
    ]
