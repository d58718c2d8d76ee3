(* The static-analysis subsystem: every lint rule fired by a
   hand-built malformed graph, the transform guard on broken passes,
   the MIG_CHECK environment toggle, and the acceptance property that
   every optimizer's output lints clean. *)

module M = Mig.Graph
module A = Aig.Graph
module N = Network.Graph
module S = Network.Signal

let check_rule name code r =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s" name code)
    true
    (Check.Report.has_rule r code)

let check_dirty name r =
  Alcotest.(check bool) (name ^ " is dirty") false (Check.Report.is_clean r)

let check_clean name r =
  Alcotest.(check bool)
    (Printf.sprintf "%s is clean: %s" name (Check.Report.to_string r))
    true
    (Check.Report.is_clean r)

(* a well-formed full adder, the clean baseline *)
let full_adder ?ctx () =
  let g = M.create ?ctx () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "cin" in
  M.add_po g "sum" (M.xor3 g a b c);
  M.add_po g "cout" (M.maj g a b c);
  g

(* ----- MIG rules ----- *)

let test_mig_clean () =
  check_clean "full adder" (Mig.Check.lint (full_adder ()))

let test_mig001_topological () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" in
  (* self-referencing fanin: in range but not topologically earlier *)
  let id = M.num_nodes g in
  ignore (M.Unsafe.push_node g (S.make id false) a b);
  let r = Mig.Check.lint g in
  check_rule "self-loop" "MIG001" r;
  check_dirty "self-loop" r

let test_mig002_dangling () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" in
  ignore (M.Unsafe.push_node g (S.make 999 false) a b);
  check_rule "dangling fanin" "MIG002" (Mig.Check.lint g);
  let g2 = M.create () in
  ignore (M.add_pi g2 "a");
  ignore (M.Unsafe.push_raw g2 (-1) 0 2);
  check_rule "inconsistent PI markers" "MIG002" (Mig.Check.lint g2);
  let g3 = full_adder () in
  M.add_po g3 "f" (S.make 999 false);
  check_rule "dangling PO" "MIG002" (Mig.Check.lint g3)

let test_mig003_strash () =
  (* a node bypassing the hash table: missing from strash *)
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  ignore (M.Unsafe.push_node g a b c);
  check_rule "missing from strash" "MIG003" (Mig.Check.lint g);
  (* a structural duplicate of an existing node *)
  let g2 = M.create () in
  let a = M.add_pi g2 "a" and b = M.add_pi g2 "b" and c = M.add_pi g2 "c" in
  let s = M.maj g2 a b c in
  M.add_po g2 "f" s;
  ignore (M.Unsafe.push_node g2 a b c);
  check_rule "structural duplicate" "MIG003" (Mig.Check.lint g2);
  (* a stale extra entry in the table *)
  let g3 = full_adder () in
  ignore (M.Unsafe.strash_add g3 (S.make 1 false, S.make 1 false, S.make 1 false) 1);
  check_rule "stale strash entry" "MIG003" (Mig.Check.lint g3)

let test_mig004_normalization () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  ignore (M.Unsafe.push_node g c b a);
  check_rule "unsorted fanins" "MIG004" (Mig.Check.lint g);
  let g2 = M.create () in
  let a = M.add_pi g2 "a" and b = M.add_pi g2 "b" and c = M.add_pi g2 "c" in
  ignore (M.Unsafe.push_node g2 (S.not_ a) (S.not_ b) c);
  check_rule "two complemented fanins" "MIG004" (Mig.Check.lint g2);
  let g3 = M.create () in
  let a = M.add_pi g3 "a" and c = M.add_pi g3 "c" in
  ignore (M.Unsafe.push_node g3 a a c);
  check_rule "Omega.M-collapsible node" "MIG004" (Mig.Check.lint g3)

let test_mig005_interface () =
  let g = M.create () in
  ignore (M.add_pi g "a");
  ignore (M.add_pi g "a");
  check_rule "duplicate PI name" "MIG005" (Mig.Check.lint g);
  let g2 = full_adder () in
  let a = List.hd (M.pis g2) in
  M.add_po g2 "sum" (S.make a false);
  check_rule "duplicate PO name" "MIG005" (Mig.Check.lint g2)

let test_mig006_dead_nodes () =
  let g = M.create () in
  let a = M.add_pi g "a" and b = M.add_pi g "b" and c = M.add_pi g "c" in
  M.add_po g "f" (M.maj g a b c);
  ignore (M.and_ g a b) (* dead: not reachable from the PO *);
  let r = Mig.Check.lint g in
  check_rule "dead node" "MIG006" r;
  (* a warning, not an error: the graph is still clean *)
  check_clean "dead node is only a warning" r

(* ----- AIG rules ----- *)

let aig_adder () =
  let g = A.create () in
  let a = A.add_pi g "a" and b = A.add_pi g "b" and c = A.add_pi g "cin" in
  A.add_po g "sum" (A.xor_ g (A.xor_ g a b) c);
  A.add_po g "cout" (A.maj g a b c);
  g

let test_aig_rules () =
  check_clean "aig adder" (Aig.Check.lint (aig_adder ()));
  let g = A.create () in
  let a = A.add_pi g "a" and b = A.add_pi g "b" in
  ignore (A.Unsafe.push_node g b a) (* key order violated *);
  check_rule "unordered AND" "AIG004" (Aig.Check.lint g);
  let g2 = A.create () in
  let a = A.add_pi g2 "a" in
  ignore (A.Unsafe.push_node g2 (S.make 999 false) a);
  check_rule "dangling fanin" "AIG002" (Aig.Check.lint g2);
  let g3 = A.create () in
  let a = A.add_pi g3 "a" and b = A.add_pi g3 "b" in
  let s = A.and_ g3 a b in
  A.add_po g3 "f" s;
  ignore (A.Unsafe.push_node g3 a b);
  check_rule "structural duplicate" "AIG003" (Aig.Check.lint g3);
  let g4 = A.create () in
  ignore (A.add_pi g4 "a");
  ignore (A.add_pi g4 "a");
  check_rule "duplicate PI name" "AIG005" (Aig.Check.lint g4)

(* ----- network rules ----- *)

let test_net_rules () =
  let mk () =
    let n = N.create () in
    let a = N.add_pi n "a" and b = N.add_pi n "b" in
    (n, a, b)
  in
  let n, a, b = mk () in
  N.add_po n "f" (N.and_ n a b);
  check_clean "network" (Network.Check.lint n);
  let n, a, b = mk () in
  ignore (N.Unsafe.push_gate n N.And [| b; a |]);
  check_rule "unsorted And" "NET004" (Network.Check.lint n);
  let n, a, _ = mk () in
  ignore (N.Unsafe.push_gate n N.And [| S.make 999 false; a |]);
  check_rule "dangling fanin" "NET002" (Network.Check.lint n);
  let n, a, b = mk () in
  N.add_po n "f" (N.and_ n a b);
  N.Unsafe.strash_add n N.Xor [| a; b |] 1;
  check_rule "stale strash entry" "NET003" (Network.Check.lint n);
  let n = N.create () in
  ignore (N.add_pi n "a");
  ignore (N.add_pi n "a");
  check_rule "duplicate PI name" "NET005" (Network.Check.lint n)

(* ----- the transform guard ----- *)

(* Rebuild a MIG node-for-node, optionally tampering with the first
   PO: flip its polarity or rename it. *)
let rebuild ?(flip_po = false) ?(rename_po = false) g =
  let h = M.create () in
  let map = Hashtbl.create 64 in
  Hashtbl.replace map 0 (M.const0 h);
  List.iter (fun id -> Hashtbl.replace map id (M.add_pi h (M.pi_name g id))) (M.pis g);
  let tr s =
    S.xor_complement (Hashtbl.find map (S.node s)) (S.is_complement s)
  in
  M.iter_majs g (fun id fs ->
      Hashtbl.replace map id (M.maj h (tr fs.(0)) (tr fs.(1)) (tr fs.(2))));
  List.iteri
    (fun i (name, s) ->
      let s = tr s in
      let s = if flip_po && i = 0 then S.not_ s else s in
      let name = if rename_po && i = 0 then name ^ "_x" else name in
      M.add_po h name s)
    (M.pos g);
  h

let test_guard_passes () =
  let g = full_adder () in
  let out = Mig.Check.guarded ~enabled:true ~name:"id" (fun g -> g) g in
  Alcotest.(check bool) "identity passes" true (out == g);
  let out = Mig.Check.guarded ~enabled:true ~bdd:true ~name:"copy" (fun g -> rebuild g) g in
  Alcotest.(check int) "copy preserved size" (M.size g) (M.size out)

let test_guard_catches_broken_transform () =
  let g = full_adder () in
  match Mig.Check.guarded ~enabled:true ~name:"flip" (rebuild ~flip_po:true) g with
  | _ -> Alcotest.fail "flipped-polarity pass was not caught"
  | exception Check.Guard.Failed f -> (
      Alcotest.(check string) "stage" "equivalence"
        (Check.Guard.stage_name f.stage);
      match f.cex with
      | None -> Alcotest.fail "no counterexample extracted"
      | Some cex ->
          (* the counterexample must actually distinguish the graphs *)
          let stim inputs name =
            match List.assoc_opt name inputs with
            | Some true -> -1L
            | _ -> 0L
          in
          let eval m =
            let out =
              Network.Simulate.run (Mig.Convert.to_network m) (stim cex.inputs)
            in
            Int64.logand (List.assoc cex.po out) 1L
          in
          Alcotest.(check bool)
            "cex distinguishes the two graphs" true
            (eval g <> eval (rebuild ~flip_po:true g)))

let test_guard_catches_malformed_output () =
  let g = full_adder () in
  let corrupting g =
    ignore (M.Unsafe.push_node g (S.make 999 false) (S.make 1 false) (S.make 2 false));
    g
  in
  (match Mig.Check.guarded ~enabled:true ~name:"corrupt" corrupting g with
  | _ -> Alcotest.fail "malformed output was not caught"
  | exception Check.Guard.Failed f ->
      Alcotest.(check string) "stage" "post-lint" (Check.Guard.stage_name f.stage);
      (match f.report with
      | Some r -> check_rule "post-lint report" "MIG002" r
      | None -> Alcotest.fail "no lint report attached"));
  (* interface tampering is an equivalence-stage failure *)
  let g = full_adder () in
  match Mig.Check.guarded ~enabled:true ~name:"rename" (rebuild ~rename_po:true) g with
  | _ -> Alcotest.fail "interface change was not caught"
  | exception Check.Guard.Failed f ->
      Alcotest.(check string) "stage" "equivalence"
        (Check.Guard.stage_name f.stage)

let test_guard_env_toggle () =
  (* the env booleans are parsed once, by Lsutil.Env *)
  Alcotest.(check bool) "flag 0" false (Lsutil.Env.flag "0");
  Alcotest.(check bool) "flag yes" true (Lsutil.Env.flag "yes");
  Alcotest.(check bool) "flag 1" true (Lsutil.Env.flag "1");
  Unix.putenv "MIG_CHECK" "1";
  Alcotest.(check bool) "MIG_CHECK=1 reaches Ctx.default" true
    (Lsutil.Ctx.check (Lsutil.Ctx.default ()));
  Unix.putenv "MIG_CHECK" "0";
  Alcotest.(check bool) "MIG_CHECK=0 reaches Ctx.default" false
    (Lsutil.Ctx.check (Lsutil.Ctx.default ()));
  (* under a checking ctx, a bare guarded call (no ?enabled) arms *)
  let checking = Lsutil.Ctx.create ~check:true () in
  let g = full_adder ~ctx:checking () in
  (match Mig.Check.guarded ~name:"flip" (rebuild ~flip_po:true) g with
  | _ -> Alcotest.fail "guard did not arm from the ctx policy"
  | exception Check.Guard.Failed _ -> ());
  (* quiet ctx: the same broken pass runs bare *)
  let g = full_adder () in
  let out = Mig.Check.guarded ~name:"flip" (rebuild ~flip_po:true) g in
  Alcotest.(check int) "bare run returns the broken output" (M.num_pos g)
    (M.num_pos out)

(* ----- optimizers stay clean and equivalent under the guard ----- *)

let vars = [ "a"; "b"; "c"; "d"; "e"; "f" ]

let mig_of_terms terms =
  Mig.Convert.of_network (Helpers.network_of_terms ~vars terms)

(* every goal's engine script, each run under the full transform
   guard (pre/post lint + simulation miter with counterexample) *)
let optimizer_configs =
  List.map
    (fun (goal, effort) ->
      let name =
        Printf.sprintf "%s e%d" (Flow.Move.goal_name goal) effort
      in
      (name, Mig.Check.guarded ~enabled:true ~name (Helpers.opt ~effort goal)))
    [
      (`Size, 1); (`Size, 2); (`Size, 3); (`Depth, 1); (`Depth, 2);
      (`Depth, 3); (`Activity, 1); (`Activity, 2);
    ]

let test_guarded_optimizers_random =
  Helpers.qtest ~count:50 "guarded optimizers on random MIGs"
    QCheck2.Gen.(list_repeat 3 (Helpers.gen_term ~vars ~depth:4))
    (fun terms ->
      let ok = ref true in
      List.iter
        (fun (name, opt) ->
          let m = mig_of_terms terms in
          match opt m with
          | out ->
              if not (Check.Report.is_clean (Mig.Check.lint out)) then begin
                Printf.eprintf "lint dirty after %s\n" name;
                ok := false
              end
          | exception Check.Guard.Failed f ->
              Format.eprintf "%a@." Check.Guard.pp_failure f;
              ok := false)
        optimizer_configs;
      !ok)

let test_benchmark_outputs_clean () =
  List.iter
    (fun bench ->
      let net = (Benchmarks.Suite.find bench).build () in
      check_clean (bench ^ " network") (Network.Check.lint net);
      let m = Mig.Convert.of_network net in
      check_clean (bench ^ " mig") (Mig.Check.lint m);
      List.iter
        (fun (name, opt) ->
          check_clean
            (Printf.sprintf "%s after %s" bench name)
            (Mig.Check.lint (opt m)))
        [
          ("size goal", Helpers.opt `Size);
          ("depth goal", Helpers.opt `Depth);
          ("activity goal", Helpers.opt ~effort:1 `Activity);
        ];
      let a = Aig.Convert.of_network net in
      check_clean (bench ^ " aig") (Aig.Check.lint a);
      check_clean
        (bench ^ " aig after resyn")
        (Aig.Check.lint (Aig.Resyn.run ~check:false ~effort:1 a)))
    [ "my_adder"; "count"; "b9" ]

(* ----- the reader fixes the linter motivated ----- *)

let test_blif_rejects_duplicate_names () =
  let dup_input =
    ".model bad\n.inputs a b a\n.outputs f\n.names a b f\n11 1\n.end\n"
  in
  (match Logic_io.Blif.read dup_input with
  | _ -> Alcotest.fail "duplicate .inputs name accepted"
  | exception Logic_io.Io_error.Parse_error _ -> ());
  let dup_output =
    ".model bad\n.inputs a b\n.outputs f f\n.names a b f\n11 1\n.end\n"
  in
  match Logic_io.Blif.read dup_output with
  | _ -> Alcotest.fail "duplicate .outputs name accepted"
  | exception Logic_io.Io_error.Parse_error _ -> ()

let test_verilog_rejects_duplicate_names () =
  let dup_input =
    "module bad(a, b, f);\n  input a;\n  input a, b;\n  output f;\n  assign f = a & b;\nendmodule\n"
  in
  (match Logic_io.Verilog.read dup_input with
  | _ -> Alcotest.fail "duplicate input accepted"
  | exception Logic_io.Io_error.Parse_error _ -> ());
  let dup_output =
    "module bad(a, b, f);\n  input a, b;\n  output f, f;\n  assign f = a & b;\nendmodule\n"
  in
  match Logic_io.Verilog.read dup_output with
  | _ -> Alcotest.fail "duplicate output accepted"
  | exception Logic_io.Io_error.Parse_error _ -> ()

(* ----- rule registry ----- *)

let test_rule_registry () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " registered") true (Check.Rules.mem code))
    [
      "MIG001"; "MIG002"; "MIG003"; "MIG004"; "MIG005"; "MIG006";
      "AIG001"; "AIG002"; "AIG003"; "AIG004"; "AIG005"; "AIG006";
      "NET001"; "NET002"; "NET003"; "NET004"; "NET005"; "NET006";
    ]

let () =
  Alcotest.run "check"
    [
      ( "mig-rules",
        [
          Alcotest.test_case "clean baseline" `Quick test_mig_clean;
          Alcotest.test_case "MIG001 topological order" `Quick test_mig001_topological;
          Alcotest.test_case "MIG002 dangling ids" `Quick test_mig002_dangling;
          Alcotest.test_case "MIG003 strash consistency" `Quick test_mig003_strash;
          Alcotest.test_case "MIG004 normalization" `Quick test_mig004_normalization;
          Alcotest.test_case "MIG005 interface" `Quick test_mig005_interface;
          Alcotest.test_case "MIG006 dead nodes" `Quick test_mig006_dead_nodes;
        ] );
      ( "aig-net-rules",
        [
          Alcotest.test_case "AIG rules" `Quick test_aig_rules;
          Alcotest.test_case "NET rules" `Quick test_net_rules;
          Alcotest.test_case "rule registry" `Quick test_rule_registry;
        ] );
      ( "guard",
        [
          Alcotest.test_case "sound passes go through" `Quick test_guard_passes;
          Alcotest.test_case "broken transform caught with cex" `Quick
            test_guard_catches_broken_transform;
          Alcotest.test_case "malformed output / interface caught" `Quick
            test_guard_catches_malformed_output;
          Alcotest.test_case "MIG_CHECK toggle" `Quick test_guard_env_toggle;
        ] );
      ( "optimizers",
        [
          test_guarded_optimizers_random;
          Alcotest.test_case "benchmark outputs lint clean" `Quick
            test_benchmark_outputs_clean;
        ] );
      ( "readers",
        [
          Alcotest.test_case "blif rejects duplicate names" `Quick
            test_blif_rejects_duplicate_names;
          Alcotest.test_case "verilog rejects duplicate names" `Quick
            test_verilog_rejects_duplicate_names;
        ] );
    ]
