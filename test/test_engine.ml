(* Flow.Engine and Lsutil.Budget: budgets fire, checkpoints hold, and
   the engine always hands back a valid best-so-far graph. *)

module M = Mig.Graph
module Tr = Mig.Transform
module E = Flow.Engine
module B = Lsutil.Budget
module F = Lsutil.Fault

let mig_of ?ctx name =
  let net = (Benchmarks.Suite.find name).Benchmarks.Suite.build () in
  Mig.Convert.of_network ?ctx (Network.Graph.flatten_aoig net)

(* ----- Budget primitives ----- *)

let test_budget_deadline () =
  let b = B.create () in
  match
    B.with_budget b ~deadline_s:0.02 (fun () ->
        while true do
          B.poll b
        done)
  with
  | () -> Alcotest.fail "unreachable"
  | exception B.Exhausted B.Deadline -> ()
  | exception B.Exhausted B.Node_cap -> Alcotest.fail "wrong reason"

let test_budget_node_cap () =
  let b = B.create () in
  match
    B.with_budget b ~max_nodes:1_000 (fun () ->
        for _ = 1 to 100_000 do
          B.note_nodes b 1
        done)
  with
  | () -> Alcotest.fail "unreachable"
  | exception B.Exhausted B.Node_cap -> ()
  | exception B.Exhausted B.Deadline -> Alcotest.fail "wrong reason"

let test_budget_nesting () =
  (* an inner budget cannot extend the ambient allowance: its cap is
     clamped to what the outer budget has left *)
  let b = B.create () in
  match
    B.with_budget b ~max_nodes:100 (fun () ->
        B.note_nodes b 50;
        B.with_budget b ~max_nodes:1_000_000 (fun () ->
            for _ = 1 to 10_000 do
              B.note_nodes b 1
            done))
  with
  | () -> Alcotest.fail "inner budget escaped the outer cap"
  | exception B.Exhausted B.Node_cap -> ()
  | exception B.Exhausted B.Deadline -> Alcotest.fail "wrong reason"

let test_budget_suspended () =
  let b = B.create () in
  B.with_budget b ~max_nodes:10 (fun () ->
      B.suspended b (fun () ->
          for _ = 1 to 1_000 do
            B.note_nodes b 1
          done);
      Alcotest.(check bool) "not expired" false (B.expired b))

let test_disabled_hooks_cheap () =
  (* the whole robustness layer must be (close to) free when disarmed:
     10M poll+fire pairs are single load-and-branch each, so even a
     noisy CI box finishes far under the bound *)
  let b = B.create () and f = F.create () in
  Alcotest.(check bool) "no ambient budget" false (B.active b);
  Alcotest.(check bool) "no fault plan" false (F.enabled f);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 10_000_000 do
    B.poll b;
    ignore (F.fire f "transform")
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "disarmed hooks cheap" true (dt < 0.5)

(* ----- engine checkpoint/rollback ----- *)

let test_checkpoint_best_so_far () =
  let m = mig_of "count" in
  let shrunk = ref (-1) in
  let passes =
    [
      E.pass "shrink" (fun g ->
          let g' = Tr.eliminate g in
          shrunk := M.size g';
          g');
      E.pass "bomb" (fun g -> B.exhaust (Lsutil.Ctx.budget (M.ctx g)));
      E.pass "tail" Tr.eliminate;
    ]
  in
  let out, rep = E.run ~verify:true ~timeout_s:60.0 ~seed:42 ~passes m in
  Alcotest.(check bool) "equivalent to input" true
    (Mig.Equiv.migs ~seed:9 m out);
  Alcotest.(check bool) "best-so-far no worse than shrink result" true
    (M.size out <= !shrunk);
  let outcomes =
    List.map (fun r -> E.outcome_name r.E.outcome) rep.E.passes
  in
  Alcotest.(check (list string)) "outcomes"
    [ "completed"; "timed_out"; "skipped" ]
    outcomes;
  Alcotest.(check bool) "degraded" true rep.E.degraded;
  Alcotest.(check bool) "verified" true rep.E.verified;
  Alcotest.(check bool) "rollback counted" true (rep.E.rollbacks >= 1)

let test_failed_pass_rolls_back () =
  let m = mig_of "count" in
  let passes =
    [
      E.pass "ok" Tr.eliminate;
      E.pass "boom" (fun _ -> failwith "synthetic");
      E.pass "after" Tr.eliminate;
    ]
  in
  let out, rep = E.run ~verify:true ~seed:3 ~passes m in
  Alcotest.(check bool) "equivalent to input" true
    (Mig.Equiv.migs ~seed:4 m out);
  let outcomes =
    List.map (fun r -> E.outcome_name r.E.outcome) rep.E.passes
  in
  Alcotest.(check (list string)) "outcomes"
    [ "completed"; "failed"; "completed" ]
    outcomes;
  Alcotest.(check bool) "degraded" true rep.E.degraded;
  Alcotest.(check int) "one rollback" 1 rep.E.rollbacks

(* A miscompiling pass: a copy of [g] with its first PO complemented.
   It lints clean, so only a miter can reject it. *)
let flip_first_po g =
  let module S = Network.Signal in
  let out = M.create ~ctx:(M.ctx g) () in
  let map = Array.make (M.num_nodes g) (M.const0 out) in
  List.iter (fun id -> map.(id) <- M.add_pi out (M.pi_name g id)) (M.pis g);
  let mapped s = S.xor_complement map.(S.node s) (S.is_complement s) in
  M.iter_majs g (fun id fs ->
      map.(id) <- M.maj out (mapped fs.(0)) (mapped fs.(1)) (mapped fs.(2)));
  List.iteri
    (fun k (name, s) ->
      M.add_po out name (S.xor_complement (mapped s) (k = 0)))
    (M.pos g);
  out

let test_unsound_pass_falls_back () =
  (* with the per-pass miter off the unsound result is checkpointed
     (the cost ranks every new checkpoint best); the final
     re-verification must catch it, return the input and say so *)
  let m = mig_of "count" in
  let tick = ref 0.0 in
  let cost _ =
    tick := !tick -. 1.0;
    (!tick, 0.0)
  in
  let passes = [ E.pass "ok" Tr.eliminate; E.pass "miscompile" flip_first_po ] in
  let out, rep = E.run ~verify:false ~cost ~seed:3 ~passes m in
  Alcotest.(check bool) "equivalent to input" true
    (Mig.Equiv.migs ~seed:4 m out);
  Alcotest.(check bool) "every pass completed" true
    (List.for_all (fun r -> r.E.outcome = E.Completed) rep.E.passes);
  Alcotest.(check int) "the fallback is a rollback" 1 rep.E.rollbacks;
  Alcotest.(check bool) "degraded" true rep.E.degraded

(* ----- determinism: equal fault specs give equal runs ----- *)

let fingerprint (g, (rep : E.report)) =
  ( M.size g,
    M.depth g,
    rep.E.rollbacks,
    List.map
      (fun r -> (r.E.pass, E.outcome_name r.E.outcome, r.E.rolled_back))
      rep.E.passes )

let run_faulted spec m =
  let f = Lsutil.Ctx.fault (M.ctx m) in
  (match F.arm_string f spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bad spec %S: %s" spec e);
  Fun.protect
    ~finally:(fun () -> F.disarm f)
    (fun () -> E.run ~verify:true ~seed:7 ~passes:(E.of_goal ~effort:1 `Size) m)

let test_same_seed_deterministic () =
  let spec = "seed=11:rate=0.01:kind=any:sites=transform,strash:max=6" in
  (* a fresh ctx per run: equal specs must give equal runs *)
  let once () = fingerprint (run_faulted spec (mig_of "cla")) in
  Alcotest.(check bool) "same fingerprint" true (once () = once ())

(* ----- unified budget in the BDD layer ----- *)

let test_bds_graceful_none () =
  (* C6288 is the canonical BDD blow-up; a tiny node limit must come
     back as None, never an exception *)
  let net = (Benchmarks.Suite.find "C6288").Benchmarks.Suite.build () in
  match Flow.bds_opt ~node_limit:500 ~seed:3 (Lsutil.Ctx.create ()) net with
  | None -> ()
  | Some _ -> Alcotest.fail "expected blow-up to return None"

(* ----- the acceptance scenario: bounded opt on C6288 ----- *)

let test_timeout_bounded_c6288 () =
  let m = mig_of "C6288" in
  let timeout = 0.2 in
  let t0 = Unix.gettimeofday () in
  let out, rep =
    E.run ~timeout_s:timeout
      ~cost:(E.cost_of_goal `Depth)
      ~seed:5
      ~passes:(E.of_goal ~effort:2 `Depth)
      m
  in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "within 1.5x deadline (+verify slack)" true
    (dt <= (timeout *. 1.5) +. 0.6);
  Alcotest.(check bool) "verified" true rep.E.verified;
  Alcotest.(check bool) "some pass interrupted" true rep.E.degraded;
  Alcotest.(check bool) "valid graph" true (M.size out > 0);
  Alcotest.(check bool) "every pass reported" true
    (List.length rep.E.passes = List.length (E.of_goal ~effort:2 `Depth))

let () =
  Alcotest.run "engine"
    [
      ( "budget",
        [
          Alcotest.test_case "deadline fires" `Quick test_budget_deadline;
          Alcotest.test_case "node cap fires" `Quick test_budget_node_cap;
          Alcotest.test_case "nesting clamps" `Quick test_budget_nesting;
          Alcotest.test_case "suspension" `Quick test_budget_suspended;
          Alcotest.test_case "disarmed hooks cheap" `Slow
            test_disabled_hooks_cheap;
        ] );
      ( "engine",
        [
          Alcotest.test_case "checkpointed best-so-far" `Quick
            test_checkpoint_best_so_far;
          Alcotest.test_case "failed pass rolls back" `Quick
            test_failed_pass_rolls_back;
          Alcotest.test_case "unsound pass falls back" `Quick
            test_unsound_pass_falls_back;
          Alcotest.test_case "same-seed determinism" `Quick
            test_same_seed_deterministic;
          Alcotest.test_case "bds blow-up is None" `Quick
            test_bds_graceful_none;
          Alcotest.test_case "C6288 bounded opt" `Slow
            test_timeout_bounded_c6288;
        ] );
    ]
