(* Region-parallel rewriting inside ONE graph: the intra-graph
   counterpart of [Flow.Batch].

   The pipeline is
     partition -> extract -> optimize per region -> commit in order
   and only the optimize step runs on worker domains.  Determinism
   rests on every stage being a pure function of the input graph and
   the spec:

   - [Mig.Partition.split] is deterministic (ascending-id chunking);
   - extraction maps a region to a standalone sub-MIG through an
     injective, complement-preserving renumbering, which can neither
     fold (Ω.M needs equal-or-complement operands, preserved exactly)
     nor strash-merge (distinct normalized triples stay distinct) — so
     the sub-MIG is an isomorphic copy, independent of scheduling;
   - each region is optimized under its OWN fresh ctx (seeded from the
     spec, no wall-clock budget), so its result depends only on the
     extracted sub-MIG;
   - results are committed into the output graph sequentially in
     region index order — the same input-order discipline
     [Flow.Batch] and [Lsutil.Memo.merge] use.

   The job count therefore only changes which domain computes each
   region, never what is computed: [run ~jobs:n] is bit-identical to
   [run ~jobs:1] for any [n].

   Sanitizer protocol (armed under MIG_SAN=1): the parent graph is
   {!Lsutil.San.publish}ed for the read-only parallel phase and
   transferred back for the commit; each worker publishes its region
   result before joining, so the coordinator's commit-time reads are
   clean.  Worker-domain traffic on an unpublished structure is a
   structured SAN finding, not a silent race. *)

module T = Lsutil.Telemetry
module Ctx = Lsutil.Ctx
module San = Lsutil.San
module G = Mig.Graph
module S = Network.Signal
module P = Mig.Partition

type spec = {
  goal : [ `Size | `Depth ];
  effort : int;
  target : int; (* region node-count target *)
  verify : bool option; (* per-pass region miter; None = ctx check policy *)
  seed : int;
}

let default_spec =
  { goal = `Size; effort = 2; target = 65536; verify = None; seed = 1 }

type region_outcome = {
  index : int;
  nodes_in : int; (* majs extracted *)
  nodes_out : int; (* majs after optimization *)
  verified : bool;
  fell_back : bool; (* region engine run degraded *)
  time_s : float;
  telemetry : T.node option;
  san_findings : int;
}

type outcome = {
  jobs : int;
  live_majs : int;
  region_target : int;
  regions : region_outcome list;
  size_in : int;
  depth_in : int;
  size_out : int;
  depth_out : int;
  equivalent : bool; (* final whole-graph miter; true when skipped *)
}

(* ------------------------------------------------------------------ *)
(* Extraction: region -> standalone sub-MIG                            *)
(* ------------------------------------------------------------------ *)

(* Region inputs become PIs (in ascending parent-id order, so the k-th
   PI of the sub is the k-th non-constant entry of [r.inputs]); the
   constant maps to the constant.  By induction every mapped node
   keeps its regular polarity: const and PIs map to regular signals,
   and a majority whose fanins map to regular signals carries the same
   complement count as its (normalized, hence <= 1 complement) parent
   triple — so Ω.I never fires and [G.maj] returns a regular signal.
   Extraction is an isomorphism: exactly [|r.nodes|] majs, all strash
   misses. *)
let extract ~shards rctx g (r : P.region) =
  let sub = G.create ~ctx:rctx ~shards () in
  G.reserve sub (Array.length r.nodes);
  let map =
    Hashtbl.create (2 * (Array.length r.nodes + Array.length r.inputs))
  in
  Hashtbl.replace map 0 (G.const0 sub : S.t :> int);
  Array.iter
    (fun id ->
      if id <> 0 then
        Hashtbl.replace map id
          (G.add_pi sub (Printf.sprintf "i%d" id) : S.t :> int))
    r.inputs;
  let mapped s =
    S.xor_complement
      (S.unsafe_of_int (Hashtbl.find map (S.node s)))
      (S.is_complement s)
  in
  Array.iter
    (fun id ->
      let fs = G.fanins g id in
      let s' = G.maj sub (mapped fs.(0)) (mapped fs.(1)) (mapped fs.(2)) in
      Hashtbl.replace map id (s' : S.t :> int))
    r.nodes;
  Array.iter
    (fun id ->
      G.add_po sub (Printf.sprintf "o%d" id)
        (S.unsafe_of_int (Hashtbl.find map id)))
    r.outputs;
  sub

(* ------------------------------------------------------------------ *)
(* Per-region optimization (worker side)                               *)
(* ------------------------------------------------------------------ *)

let optimize_region ~spec ~shards ~stats_on ~check_on ~san_on g index region =
  let rctx =
    Ctx.create ~stats:stats_on ~check:check_on ~seed:spec.seed ~san:san_on ()
  in
  let work () =
    let sub = extract ~shards rctx g region in
    (* the engine isolates, verifies and degrades every pass, and falls
       back to the region's input when its result does not verify, so
       its output is committed as is *)
    let optimized, report =
      Batch.optimizer_of_spec
        {
          Batch.default_spec with
          goal = (spec.goal :> [ `Size | `Depth | `Activity ]);
          effort = spec.effort;
          verify = spec.verify;
          seed = spec.seed;
        }
        sub
    in
    (optimized, report.Engine.degraded, report.Engine.verified)
  in
  let ((result, fell_back, verified), telemetry), time_s =
    T.time (fun () ->
        T.capture (Ctx.stats rctx) (Printf.sprintf "par:region%d" index) work)
  in
  (* hand the result to the coordinator; everything else created under
     this region ctx stays domain-private and dies with it *)
  San.publish (G.san_tag result);
  San.drain (Ctx.san rctx);
  let oc =
    {
      index;
      nodes_in = Array.length region.P.nodes;
      nodes_out = G.size result;
      verified;
      fell_back;
      time_s;
      telemetry;
      san_findings = List.length (San.findings (Ctx.san rctx));
    }
  in
  (result, oc)

(* ------------------------------------------------------------------ *)
(* Commit (coordinator side, region order)                             *)
(* ------------------------------------------------------------------ *)

(* Rebuild one region result into [out].  [gmap] maps parent node ids
   to committed packed signals; region inputs are resolved through it
   and region outputs update it for later regions and the POs.  Going
   through [G.maj] lets the output strash deduplicate across region
   boundaries — the same cross-region sharing a sequential whole-graph
   rebuild would find. *)
let commit_region out gmap (r : P.region) res =
  let rmap = Array.make (max (G.num_nodes res) 1) (-1) in
  rmap.(0) <- (G.const0 out : S.t :> int);
  let ext = Array.of_list (List.filter (fun id -> id <> 0) (Array.to_list r.inputs)) in
  List.iteri (fun k pid -> rmap.(pid) <- gmap.(ext.(k))) (G.pis res);
  let mapped s =
    S.xor_complement
      (S.unsafe_of_int rmap.(S.node s))
      (S.is_complement s)
  in
  G.iter_majs res (fun id fs ->
      rmap.(id) <- (G.maj out (mapped fs.(0)) (mapped fs.(1)) (mapped fs.(2)) : S.t :> int));
  List.iteri
    (fun k (_, s) -> gmap.(r.outputs.(k)) <- (mapped s : S.t :> int))
    (G.pos res)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(jobs = 1) ?(spec = default_spec) g =
  let pctx = G.ctx g in
  let tel = Ctx.stats pctx in
  let stats_on = T.enabled tel in
  let check_on = Ctx.check pctx in
  let san_on = San.enabled (Ctx.san pctx) in
  let shards = G.strash_shards g in
  (* the pattern table is the library's only top-level [lazy]; force
     it before spawning so no two domains race its first Lazy.force *)
  Mig.Transform.prewarm ();
  T.span tel "par" @@ fun () ->
  let size_in = G.size g and depth_in = G.depth g in
  let part = T.span tel "par:partition" (fun () -> P.split ~target:spec.target g) in
  T.count tel ~n:(P.num_regions part) "par.regions";
  T.count tel ~n:(Array.length part.P.frontier) "par.frontier";
  (* read-only parallel phase: workers walk the parent's fanin arrays *)
  San.publish (G.san_tag g);
  let results =
    T.span tel "par:regions" (fun () ->
        Batch.pmap ~jobs
          (optimize_region ~spec ~shards ~stats_on ~check_on ~san_on g)
          part.P.regions)
  in
  San.transfer (G.san_tag g);
  let out =
    T.span tel "par:commit" @@ fun () ->
    let out = G.create ~ctx:pctx ~shards () in
    G.reserve out (G.num_nodes g);
    Ctx.with_scratch pctx (G.num_nodes g) @@ fun gmap ->
    gmap.(0) <- (G.const0 out : S.t :> int);
    List.iter
      (fun id -> gmap.(id) <- (G.add_pi out (G.pi_name g id) : S.t :> int))
      (G.pis g);
    Array.iteri
      (fun i (res, _) -> commit_region out gmap part.P.regions.(i) res)
      results;
    G.iter_pos g (fun name s ->
        G.add_po out name
          (S.xor_complement
             (S.unsafe_of_int gmap.(S.node s))
             (S.is_complement s)));
    (* region outputs a later region stopped depending on leave dead
       cones behind; compact drops them and renumbers densely *)
    G.compact out
  in
  G.note_strash_stats out;
  let equivalent =
    if check_on then
      T.span tel "par:verify" (fun () -> Mig.Equiv.migs ~seed:spec.seed g out)
    else true
  in
  let out = if equivalent then out else G.cleanup g in
  ( out,
    {
      jobs;
      live_majs = part.P.live_majs;
      region_target = spec.target;
      regions = Array.to_list (Array.map snd results);
      size_in;
      depth_in;
      size_out = G.size out;
      depth_out = G.depth out;
      equivalent;
    } )

(* ------------------------------------------------------------------ *)
(* Engine integration                                                  *)
(* ------------------------------------------------------------------ *)

let pass_name spec =
  Printf.sprintf "par-%s"
    (match spec.goal with `Size -> "size" | `Depth -> "depth")

(* One engine pass wrapping a full region-parallel run, so
   [Engine.run] supplies checkpointing, rollback and the final
   unconditional re-verification around it — [mighty opt --par-jobs]
   routes through this. *)
let passes ?(jobs = 1) ?(spec = default_spec) () =
  [ Engine.pass (pass_name spec) (fun g -> fst (run ~jobs ~spec g)) ]

(* ----- reporting ----- *)

module J = Lsutil.Json

let region_to_json r =
  J.Obj
    ([
       ("index", J.Int r.index);
       ("nodes_in", J.Int r.nodes_in);
       ("nodes_out", J.Int r.nodes_out);
       ("verified", J.Bool r.verified);
       ("fell_back", J.Bool r.fell_back);
       ("time_s", J.Float r.time_s);
       ("san_findings", J.Int r.san_findings);
     ]
    @
    match r.telemetry with
    | Some node -> [ ("telemetry", T.to_json node) ]
    | None -> [])

let outcome_to_json o =
  J.Obj
    [
      ("jobs", J.Int o.jobs);
      ("live_majs", J.Int o.live_majs);
      ("region_target", J.Int o.region_target);
      ("size_in", J.Int o.size_in);
      ("depth_in", J.Int o.depth_in);
      ("size_out", J.Int o.size_out);
      ("depth_out", J.Int o.depth_out);
      ("equivalent", J.Bool o.equivalent);
      ("regions", J.List (List.map region_to_json o.regions));
    ]
