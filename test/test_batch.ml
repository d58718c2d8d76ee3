(* The reentrancy proofs for the explicit execution context:

   - ctx scratch arenas: nested acquisitions get distinct buffers and
     a steady-state rebuild loop stops allocating once the pool is
     warm (the arena-nesting regression);
   - multi-domain differential: K domains running guarded passes on
     independent random MIGs produce bit-identical graphs, telemetry
     trees and budget verdicts as the same work run sequentially;
   - [Flow.Batch.run]: outcomes merge in input order and are
     jobs-invariant. *)

module T = Lsutil.Telemetry
module Ctx = Lsutil.Ctx
module M = Mig.Graph
module S = Network.Signal
module B = Flow.Batch
module E = Flow.Engine

(* ----- satellite: arena nesting + steady-state reuse ----- *)

let test_scratch_nesting () =
  let ctx = Ctx.create () in
  Ctx.with_scratch ctx 16 (fun a ->
      a.(0) <- 42;
      Ctx.with_scratch ctx 16 (fun b ->
          Alcotest.(check bool) "nested buffers are distinct" true (a != b);
          Alcotest.(check bool)
            "inner buffer is -1-filled" true
            (Array.for_all (fun x -> x = -1) (Array.sub b 0 16)));
      Alcotest.(check int) "outer survives inner" 42 a.(0));
  (* the exception path must still return buffers to the pool *)
  let allocs0 = Ctx.scratch_allocs ctx in
  (try Ctx.with_scratch ctx 16 (fun _ -> failwith "boom") with
  | Failure _ -> ());
  Ctx.with_scratch ctx 16 ignore;
  Alcotest.(check int)
    "buffer recycled across an exception" allocs0 (Ctx.scratch_allocs ctx)

let test_scratch_steady_state () =
  let ctx = Ctx.create () in
  let net = Helpers.random_network ~seed:11 ~inputs:6 ~gates:60 ~outputs:4 in
  let m = Mig.Convert.of_network ~ctx net in
  (* every optimization pass rebuilds through [Ctx.with_scratch]; the
     first runs size the pool, after which repeated identical runs
     must not allocate fresh scratch *)
  let opt () =
    ignore (Helpers.opt `Depth (Helpers.opt `Size m))
  in
  opt ();
  opt ();
  let warm = Ctx.scratch_allocs ctx in
  Alcotest.(check bool) "pool did allocate while cold" true (warm > 0);
  for _ = 1 to 5 do
    opt ()
  done;
  Alcotest.(check int)
    "no fresh scratch once the pool is warm" warm (Ctx.scratch_allocs ctx)

(* ----- satellite: K-domain differential vs sequential ----- *)

(* Strip the only nondeterministic telemetry field (wall-clock
   [elapsed]) so trees compare structurally. *)
type ntree =
  | N of string * (string * T.value) list * (string * int) list * ntree list

let rec normalize (n : T.node) =
  N (n.T.name, n.T.meta, n.T.counters, List.map normalize n.T.children)

(* A graph fingerprint that is sensitive to node numbering: live
   majority nodes with their exact fanin signals, PIs and POs. *)
let graph_fp g =
  let majs = ref [] in
  M.iter_live_majs g (fun id fis ->
      majs := (id, Array.to_list (Array.map (fun s -> (s : S.t :> int)) fis))
              :: !majs);
  ( M.size g,
    M.depth g,
    List.rev !majs,
    M.pis g,
    List.map (fun (n, s) -> (n, (s : S.t :> int))) (M.pos g) )

(* One fully independent unit of work: private ctx (stats + checks +
   a node budget), private random MIG, guarded size and depth passes
   under a telemetry capture.  Everything the unit touches hangs off
   its own ctx, so running K of these on K domains is a pure
   reentrancy question. *)
let run_unit i seed =
  let ctx =
    Ctx.create ~stats:true ~check:true ~budget:(None, Some 2_000_000) ()
  in
  let net = Helpers.random_network ~seed ~inputs:5 ~gates:30 ~outputs:3 in
  let m = Mig.Convert.of_network ~ctx net in
  let out, tree =
    T.capture (Ctx.stats ctx)
      (Printf.sprintf "unit%d" i)
      (fun () ->
        Mig.Check.guarded ~enabled:true ~name:"depth"
          (Helpers.opt `Depth)
          (Mig.Check.guarded ~enabled:true ~name:"size" (Helpers.opt `Size) m))
  in
  ( graph_fp out,
    Option.map normalize tree,
    Lsutil.Budget.expired (Ctx.budget ctx) )

let test_domain_differential =
  Helpers.qtest ~count:8 "K domains == sequential (graphs, telemetry, budgets)"
    QCheck2.Gen.(int_bound 10_000)
    (fun base ->
      (* force the library's only top-level [lazy] before spawning *)
      Mig.Transform.prewarm ();
      let seeds = Array.init 6 (fun i -> (base * 131) + i) in
      let seq = Array.mapi run_unit seeds in
      (* [B.pmap] clamps to the item count only, so jobs=3 really
         spawns domains even on a single-core host *)
      let par = B.pmap ~jobs:3 run_unit seeds in
      if seq <> par then
        QCheck2.Test.fail_report
          "parallel run diverged from sequential with identical seeds";
      true)

(* ----- Batch.run: input-order merge, jobs-invariance ----- *)

let batch_items =
  List.map
    (fun (name, seed) ->
      {
        B.name;
        build =
          (fun () ->
            Helpers.random_network ~seed ~inputs:5 ~gates:25 ~outputs:2);
      })
    [ ("alpha", 3); ("bravo", 14); ("charlie", 15); ("delta", 92) ]

let outcome_fp (o : B.outcome) =
  ( o.B.name,
    o.B.size_in,
    o.B.depth_in,
    o.B.size_out,
    o.B.depth_out,
    o.B.report.E.verified,
    o.B.report.E.degraded,
    o.B.report.E.rollbacks,
    Option.map normalize o.B.telemetry )

let test_batch_run () =
  let spec = { B.default_spec with B.effort = 1 } in
  let make_ctx _ _ = Ctx.create ~stats:true () in
  let seq = B.run ~jobs:1 ~spec ~make_ctx batch_items in
  let par = B.run ~jobs:4 ~spec ~make_ctx batch_items in
  Alcotest.(check (list string))
    "outcomes in input order"
    [ "alpha"; "bravo"; "charlie"; "delta" ]
    (List.map (fun o -> o.B.name) seq);
  Alcotest.(check bool)
    "jobs=4 structurally identical to jobs=1" true
    (List.map outcome_fp seq = List.map outcome_fp par);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (o.B.name ^ " telemetry captured") true
        (o.B.telemetry <> None))
    seq

(* ----- Batch.run ?stop: cooperative interruption ----- *)

let test_batch_stop () =
  let spec = { B.default_spec with B.effort = 1 } in
  let make_ctx _ _ = Ctx.create () in
  (* a pre-set flag stops before anything is claimed *)
  let stop = Atomic.make true in
  Alcotest.(check int)
    "pre-set stop claims nothing" 0
    (List.length (B.run ~jobs:1 ~spec ~make_ctx ~stop batch_items));
  (* a flag flipped by the first item's build: the in-flight item
     still finishes (whole, verified), nothing further is claimed *)
  let stop = Atomic.make false in
  let items =
    List.mapi
      (fun i it ->
        {
          it with
          B.build =
            (fun () ->
              if i = 0 then Atomic.set stop true;
              it.B.build ());
        })
      batch_items
  in
  let got = B.run ~jobs:1 ~spec ~make_ctx ~stop items in
  Alcotest.(check (list string))
    "only the in-flight item completes" [ "alpha" ]
    (List.map (fun o -> o.B.name) got);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (o.B.name ^ " outcome is whole and verified") true
        o.B.report.E.verified)
    got;
  (* the report records the interruption *)
  let j = B.to_json ~interrupted:true ~jobs:1 got in
  match Lsutil.Json.member "interrupted" j with
  | Some (Lsutil.Json.Bool true) -> ()
  | _ -> Alcotest.fail "to_json ~interrupted must carry the marker"

let () =
  Alcotest.run "batch"
    [
      ( "scratch",
        [
          Alcotest.test_case "nesting" `Quick test_scratch_nesting;
          Alcotest.test_case "steady-state reuse" `Quick
            test_scratch_steady_state;
        ] );
      ("differential", [ test_domain_differential ]);
      ( "batch",
        [
          Alcotest.test_case "run" `Quick test_batch_run;
          Alcotest.test_case "stop flag" `Quick test_batch_stop;
        ] );
    ]
