(* The domain-ownership/lifetime sanitizer (Lsutil.San):

   - negative: each SAN001..SAN006 code fires exactly once from a
     deliberately violating access pattern (Collect mode, so the
     finding is inspected rather than raised);
   - positive: the publish/transfer handoff protocol, scratch arenas
     and whole optimization passes run sanitizer-clean;
   - differential: Flow.Batch under MIG_SAN semantics (san:true ctx
     per item) is finding-free and bit-identical across job counts. *)

(* this test proves cross-domain violations, so it must spawn raw
   domains itself rather than go through Flow.Batch *)
[@@@san.allow "SRC002"]

module San = Lsutil.San
module Ctx = Lsutil.Ctx
module M = Mig.Graph
module B = Flow.Batch
module E = Flow.Engine

let spawn_run f = Domain.join (Domain.spawn f)

let collecting () = San.create ~mode:San.Collect ~enabled:true ()

let check_codes what t expected =
  Alcotest.(check (list string))
    what expected
    (List.map (fun (f : San.finding) -> f.San.code) (San.findings t))

(* ----- negative: one violation, one finding, stable code ----- *)

let test_san001_cross_domain_read () =
  let t = collecting () in
  let tag = San.register t ~name:"g" in
  spawn_run (fun () -> San.read_access tag);
  check_codes "foreign read" t [ "SAN001" ]

let test_san002_cross_domain_write () =
  let t = collecting () in
  let tag = San.register t ~name:"g" in
  spawn_run (fun () -> San.write_access tag);
  check_codes "foreign write" t [ "SAN002" ]

let test_san002_published_write () =
  let t = collecting () in
  let tag = San.register t ~name:"g" in
  San.publish tag;
  San.write_access tag;
  check_codes "published structures are read-only" t [ "SAN002" ]

let test_san003_stale_generation () =
  let t = collecting () in
  let tag = San.register t ~name:"g" in
  let snap = San.snapshot tag in
  San.bump ~reason:"compact" tag;
  San.validate tag ~snapshot:snap;
  check_codes "ids minted before a renumbering" t [ "SAN003" ]

let test_san004_illegal_handoff () =
  let t = collecting () in
  let tag = San.register t ~name:"g" in
  spawn_run (fun () -> San.transfer tag);
  check_codes "claiming an owned structure" t [ "SAN004" ]

let test_san005_double_lease () =
  let t = collecting () in
  let tag = San.register t ~name:"buf" in
  San.lease tag;
  San.lease tag;
  check_codes "double lease" t [ "SAN005" ];
  San.release tag

let test_san006_leaked_lease () =
  let t = collecting () in
  let tag = San.register t ~name:"buf" in
  San.lease tag;
  San.drain t;
  check_codes "lease still out at drain" t [ "SAN006" ]

(* ----- positive: the handoff protocol and Raise mode ----- *)

let test_handoff_protocol () =
  let t = San.create ~enabled:true () in
  let tag = San.register t ~name:"g" in
  San.write_access tag;
  (* publish: any domain may read; the worker claims it, works, and
     publishes it back for the main domain to reclaim *)
  San.publish tag;
  spawn_run (fun () ->
      San.read_access tag;
      San.transfer tag;
      San.write_access tag;
      San.publish tag);
  San.read_access tag;
  San.transfer tag;
  San.write_access tag;
  Alcotest.(check bool) "clean handoff" true (San.is_clean t)

let test_raise_mode () =
  let t = San.create ~enabled:true () in
  let tag = San.register t ~name:"g" in
  let raised =
    spawn_run (fun () ->
        match San.write_access tag with
        | () -> false
        | exception San.Violation f -> f.San.code = "SAN002")
  in
  Alcotest.(check bool) "Violation raised at the site" true raised;
  (* the finding is recorded before the raise, so post-mortem sweeps
     see it even when the raise was swallowed downstream *)
  check_codes "recorded before raise" t [ "SAN002" ]

let test_disabled_is_silent () =
  let t = San.create ~enabled:false () in
  let tag = San.register t ~name:"g" in
  spawn_run (fun () ->
      San.write_access tag;
      San.lease tag;
      San.lease tag);
  San.drain t;
  Alcotest.(check bool) "disabled handle never records" true (San.is_clean t)

(* ----- positive: real structures under san:true ----- *)

let test_graph_clean_run () =
  let ctx = Ctx.create ~san:true () in
  let net = Helpers.random_network ~seed:7 ~inputs:5 ~gates:40 ~outputs:3 in
  let m = Mig.Convert.of_network ~ctx net in
  let m = Helpers.opt `Depth (Helpers.opt `Size m) in
  Alcotest.(check bool) "optimized" true (M.size m > 0);
  Ctx.with_scratch ctx 32 (fun a ->
      a.(0) <- 1;
      Ctx.with_scratch ctx 32 (fun b -> b.(0) <- 2));
  San.drain (Ctx.san ctx);
  Alcotest.(check bool)
    "single-domain pipeline is sanitizer-clean" true
    (San.is_clean (Ctx.san ctx))

let test_graph_stale_id () =
  let ctx = Ctx.create ~san:true ~san_mode:San.Collect () in
  let net = Helpers.random_network ~seed:19 ~inputs:4 ~gates:20 ~outputs:2 in
  let m = Mig.Convert.of_network ~ctx net in
  let snap = San.snapshot (M.san_tag m) in
  let m2 = M.compact m in
  (* node ids taken before the compact do not name nodes of [m2]; the
     bumped generation catches the staleness *)
  San.validate (M.san_tag m) ~snapshot:snap;
  Alcotest.(check bool) "compacted" true (M.size m2 <= M.size m);
  let codes =
    List.map (fun (f : San.finding) -> f.San.code)
      (San.findings (Ctx.san ctx))
  in
  Alcotest.(check (list string)) "stale id is SAN003" [ "SAN003" ] codes

let test_aig_tag_registered () =
  let ctx = Ctx.create ~san:true () in
  let g = Aig.Graph.create ~ctx () in
  Alcotest.(check bool)
    "aig tag owned by creator" true
    (San.owner (Aig.Graph.san_tag g) = Some (Domain.self () :> int))

(* ----- differential: batch under the sanitizer ----- *)

let outcome_fp (o : B.outcome) =
  ( o.B.name,
    o.B.size_in,
    o.B.depth_in,
    o.B.size_out,
    o.B.depth_out,
    o.B.report.E.verified,
    o.B.report.E.degraded,
    o.B.report.E.rollbacks )

let test_batch_differential =
  Helpers.qtest ~count:4 "MIG_SAN batch: zero findings, jobs-invariant"
    QCheck2.Gen.(int_bound 10_000)
    (fun base ->
      Mig.Transform.prewarm ();
      let items =
        List.map
          (fun (name, k) ->
            {
              B.name;
              build =
                (fun () ->
                  Helpers.random_network
                    ~seed:((base * 37) + k)
                    ~inputs:5 ~gates:25 ~outputs:2);
            })
          [ ("x", 0); ("y", 1); ("z", 2) ]
      in
      let spec = { B.default_spec with B.effort = 1 } in
      let run jobs =
        let mu = Mutex.create () in
        let ctxs = ref [] in
        let make_ctx _ _ =
          (* created inside the worker domain, so the worker owns
             every structure registered under it — MIG_SAN=1 batch
             semantics *)
          let c = Ctx.create ~san:true () in
          Mutex.protect mu (fun () -> ctxs := c :: !ctxs);
          c
        in
        let out = B.run ~jobs ~spec ~make_ctx items in
        let clean =
          List.for_all (fun c -> San.is_clean (Ctx.san c)) !ctxs
        in
        (List.map outcome_fp out, clean, List.length !ctxs)
      in
      let seq, clean1, n1 = run 1 in
      let par, clean2, n2 = run 2 in
      if n1 <> 3 || n2 <> 3 then
        QCheck2.Test.fail_report "expected one ctx per item";
      if not (clean1 && clean2) then
        QCheck2.Test.fail_report "sanitizer findings in a clean batch";
      if seq <> par then
        QCheck2.Test.fail_report
          "jobs=2 diverged from sequential under the sanitizer";
      true)

let () =
  Alcotest.run "san"
    [
      ( "negative",
        [
          Alcotest.test_case "SAN001 cross-domain read" `Quick
            test_san001_cross_domain_read;
          Alcotest.test_case "SAN002 cross-domain write" `Quick
            test_san002_cross_domain_write;
          Alcotest.test_case "SAN002 published write" `Quick
            test_san002_published_write;
          Alcotest.test_case "SAN003 stale generation" `Quick
            test_san003_stale_generation;
          Alcotest.test_case "SAN004 illegal handoff" `Quick
            test_san004_illegal_handoff;
          Alcotest.test_case "SAN005 double lease" `Quick
            test_san005_double_lease;
          Alcotest.test_case "SAN006 leaked lease" `Quick
            test_san006_leaked_lease;
        ] );
      ( "positive",
        [
          Alcotest.test_case "handoff protocol" `Quick test_handoff_protocol;
          Alcotest.test_case "raise mode" `Quick test_raise_mode;
          Alcotest.test_case "disabled is silent" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "clean optimization run" `Quick
            test_graph_clean_run;
          Alcotest.test_case "stale id after compact" `Quick
            test_graph_stale_id;
          Alcotest.test_case "aig registration" `Quick
            test_aig_tag_registered;
        ] );
      ("differential", [ test_batch_differential ]);
    ]
