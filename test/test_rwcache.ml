(* The persistent rewrite-cache stack, bottom up:

   - [Lsutil.Memo]: snapshot/delta/merge semantics and the versioned
     on-disk envelope;
   - [Mig.Rwcache]: NPN-keyed lookups localize their canonical form
     back to the querying table, share entries across a whole NPN
     class, and reject poisoned store entries under checking;
   - optimization bit-identity: the size goal's engine script answers
     the same with a
     cold cache, a warm cache, and under [Check.guarded];
   - [Flow.Cutoff]: cone fingerprints are rebuild-stable and
     salt-sensitive; a one-output edit re-optimizes only its own cone
     and the stitched result stays equivalent;
   - [Flow.Batch] over a shared [Flow.Cache]: jobs-invariant, and a
     warm second run stitches every output. *)

module T = Truthtable
module Memo = Lsutil.Memo
module J = Lsutil.Json
module F = Sop.Factor
module RW = Mig.Rwcache
module M = Mig.Graph
module N = Network.Graph
module S = Network.Signal
module B = Flow.Batch

let factor tt = Sop.Factor.factor (Sop.Isop.compute tt)

(* ----- Lsutil.Memo ----- *)

let test_memo_basics () =
  let base = Memo.base_of_list [ ("a", 1); ("b", 2); ("a", 9) ] in
  Alcotest.(check int) "duplicate key: first wins" 2 (Memo.base_size base);
  let h = Memo.fork base in
  Alcotest.(check (option int)) "find in base" (Some 1) (Memo.find h "a");
  Alcotest.(check (option int)) "miss" None (Memo.find h "z");
  Memo.add h "z" 26;
  Memo.add h "a" 99;
  (* no-op: base already has it *)
  Alcotest.(check (option int)) "find in delta" (Some 26) (Memo.find h "z");
  Alcotest.(check int) "hits" 2 (Memo.hits h);
  Alcotest.(check int) "misses" 1 (Memo.misses h);
  Alcotest.(check (list (pair string int))) "delta" [ ("z", 26) ] (Memo.delta h);
  let merged = Memo.merge base [ Memo.delta h; [ ("z", 7); ("y", 0) ] ] in
  Alcotest.(check int) "base untouched by merge" 2 (Memo.base_size base);
  Alcotest.(check int) "merged size" 4 (Memo.base_size merged);
  Alcotest.(check (option int))
    "merge: first delta wins" (Some 26)
    (List.assoc_opt "z" (Memo.base_to_list merged))

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let test_memo_envelope () =
  let path = Filename.temp_file "mighty_memo" ".json" in
  Alcotest.(check bool)
    "save" true
    (Memo.save_file path [ ("s1", J.Int 1) ] = Ok ());
  (match Memo.load_file path with
  | Ok [ ("s1", J.Int 1) ] -> ()
  | Ok _ -> Alcotest.fail "roundtrip lost the section"
  | Error e -> Alcotest.fail e);
  (* a missing file is a cold store, not an error *)
  Alcotest.(check bool)
    "missing file loads empty" true
    (Memo.load_file (path ^ ".does-not-exist") = Ok []);
  (* a stale schema stamp invalidates the whole store *)
  write_file path
    (J.to_string
       (J.Obj
          [
            ("schema", J.String "mighty-cache/0");
            ("sections", J.Obj [ ("s1", J.Int 1) ]);
          ]));
  Alcotest.(check bool)
    "stale schema loads empty" true
    (Memo.load_file path = Ok []);
  (* unreadable JSON is a hard error *)
  write_file path "{ not json";
  Alcotest.(check bool)
    "garbage is an error" true
    (match Memo.load_file path with Error _ -> true | Ok _ -> false);
  Sys.remove path

(* ----- Rwcache: localization + NPN sharing ----- *)

let prop_lookup_localizes =
  Helpers.qtest ~count:200 "qcheck: lookup form evaluates back to its table"
    (Helpers.gen_tt 4)
    (fun tt ->
      let h = RW.fork (RW.empty_base ()) in
      let form, hit = RW.lookup h ~compute:factor tt in
      (not hit) && T.equal (RW.form_tt ~nvars:4 form) tt)

let perturb n f perm phase out_neg =
  let g = ref f in
  for j = 0 to n - 1 do
    if phase land (1 lsl j) <> 0 then g := T.flip_var !g j
  done;
  let g = T.permute !g perm in
  if out_neg then T.not_ g else g

let prop_lookup_npn_share =
  Helpers.qtest ~count:200
    "qcheck: NPN-perturbed lookup hits the shared entry and localizes"
    QCheck2.Gen.(
      quad (Helpers.gen_tt 4) (shuffle_l [ 0; 1; 2; 3 ]) (int_bound 15) bool)
    (fun (f, perml, phase, neg) ->
      let g = perturb 4 f (Array.of_list perml) phase neg in
      let h = RW.fork (RW.empty_base ()) in
      let _ = RW.lookup h ~compute:factor f in
      let form, hit = RW.lookup h ~compute:factor g in
      (* constants shortcut the store entirely, so only demand a hit
         when the function has real support *)
      (hit || T.support f = []) && T.equal (RW.form_tt ~nvars:4 form) g)

(* ----- Rwcache: persistence + corrupted entries ----- *)

let some_tables =
  let a = T.var 3 0 and b = T.var 3 1 and c = T.var 3 2 in
  [ T.maj a b c; T.and_ a (T.or_ b c); T.xor_ a (T.xor_ b c); T.mux c a b ]

let populated_base () =
  let h = RW.fork (RW.empty_base ()) in
  List.iter (fun tt -> ignore (RW.lookup h ~compute:factor tt)) some_tables;
  RW.merge (RW.empty_base ()) [ RW.delta h ]

let test_rwcache_persist () =
  let base = populated_base () in
  let j = RW.base_to_json base in
  let back = RW.base_of_json j in
  Alcotest.(check int)
    "roundtrip size" (RW.base_size base) (RW.base_size back);
  (* poison one stored form (a constant cannot evaluate back to a
     non-degenerate key) and mangle another entry outright: both must
     be dropped on load, the rest kept *)
  (match j with
  | J.List (J.List [ key0; _form0 ] :: rest) ->
      let poisoned =
        J.List
          (J.List [ key0; J.Bool true ]
          :: J.String "junk"
          :: List.tl rest)
      in
      Alcotest.(check int)
        "poisoned + junk entries dropped"
        (RW.base_size base - 2)
        (RW.base_size (RW.base_of_json poisoned))
  | _ -> Alcotest.fail "unexpected base_to_json shape");
  Alcotest.(check int)
    "non-list JSON loads empty" 0
    (RW.base_size (RW.base_of_json (J.String "nope")))

let test_poisoned_hit_rejected () =
  (* discover the store key by doing a real cold lookup, then plant a
     wrong form under that key: a checking lookup must reject it and
     recompute, counting the rejection *)
  let tt = T.maj (T.var 3 0) (T.var 3 1) (T.var 3 2) in
  let cold = RW.fork (RW.empty_base ()) in
  ignore (RW.lookup cold ~compute:factor tt);
  let key =
    match RW.delta cold with
    | [ (k, _) ] -> k
    | _ -> Alcotest.fail "expected exactly one delta entry"
  in
  let poisoned = RW.merge (RW.empty_base ()) [ [ (key, F.Const true) ] ] in
  let h = RW.fork poisoned in
  let form, hit = RW.lookup ~check:true h ~compute:factor tt in
  Alcotest.(check bool) "poisoned hit rejected" false hit;
  Alcotest.(check int) "rejection counted" 1 (RW.rejected h);
  Alcotest.(check bool)
    "recomputed form is correct" true
    (T.equal (RW.form_tt ~nvars:3 form) tt)

(* ----- optimization bit-identity: cold cache = warm cache ----- *)

let mig_of ~ctx net = Mig.Convert.of_network ~ctx (N.flatten_aoig net)

(* structural fingerprint of a whole graph: the cutoff cone
   fingerprints of every PO (node ids cannot leak in) *)
let graph_fp g =
  List.map (fun (n, s) -> (n, Flow.Cutoff.fingerprint ~salt:"" g s)) (M.pos g)

let test_opt_cache_identity () =
  let ctx = Lsutil.Ctx.create () in
  let net = Helpers.random_network ~seed:7 ~inputs:6 ~gates:80 ~outputs:4 in
  let base = ref (RW.empty_base ()) in
  let run () =
    let h = RW.fork !base in
    let out = Helpers.opt ~cache:h `Size (mig_of ~ctx net) in
    base := RW.merge !base [ RW.delta h ];
    (out, RW.hits h, RW.misses h)
  in
  let cold, h0, m0 = run () in
  let warm, h1, m1 = run () in
  Alcotest.(check bool)
    "cold run populated the store" true
    (RW.base_size !base > 0);
  (* cold hits, if any, come from intra-run NPN sharing via the
     handle's own delta; every cold miss must hit on the warm run *)
  Alcotest.(check bool) "warm run hits" true (h1 >= h0 + m0 && h1 > 0);
  Alcotest.(check int) "warm run misses nothing" 0 m1;
  Alcotest.(check bool)
    "warm result bit-identical to cold" true
    (graph_fp cold = graph_fp warm);
  ignore m0

let test_guarded_warm_cache () =
  let ctx = Lsutil.Ctx.create () in
  let net = Helpers.random_network ~seed:19 ~inputs:6 ~gates:70 ~outputs:3 in
  let base = ref (RW.empty_base ()) in
  (* both the cold (populating) and warm (hitting) cached runs must
     pass the full transform guard: pre/post lint + simulation miter *)
  List.iter
    (fun label ->
      let h = RW.fork !base in
      (match
         Mig.Check.guarded ~enabled:true ~name:("opt_size:" ^ label)
           (Helpers.opt ~cache:h `Size)
           (mig_of ~ctx net)
       with
      | _ -> ()
      | exception Check.Guard.Failed f ->
          Alcotest.failf "%s: guard failed: %a" label Check.Guard.pp_failure f);
      base := RW.merge !base [ RW.delta h ])
    [ "cold"; "warm" ]

(* ----- Cutoff: fingerprints + incremental stitch ----- *)

(* structurally identical copy of [net] with output [k] complemented *)
let complement_po k net =
  let fresh = N.create () in
  let map = Hashtbl.create 64 in
  Hashtbl.add map 0 (N.const0 fresh);
  let value s =
    S.xor_complement (Hashtbl.find map (S.node s)) (S.is_complement s)
  in
  N.iter_nodes net (fun id node ->
      match node with
      | N.Const0 -> ()
      | N.Pi name -> Hashtbl.add map id (N.add_pi fresh name)
      | N.Gate (fn, fs) ->
          let f = Array.map value fs in
          let s =
            match fn with
            | N.And -> N.and_ fresh f.(0) f.(1)
            | N.Or -> N.or_ fresh f.(0) f.(1)
            | N.Xor -> N.xor_ fresh f.(0) f.(1)
            | N.Maj -> N.maj fresh f.(0) f.(1) f.(2)
            | N.Mux -> N.mux fresh f.(0) f.(1) f.(2)
          in
          Hashtbl.add map id s);
  List.iteri
    (fun i (name, s) ->
      let s = value s in
      N.add_po fresh name (if i = k then S.not_ s else s))
    (N.pos net);
  fresh

let engine_optimize g =
  Flow.Engine.run
    ~cost:(Flow.Engine.cost_of_goal `Size)
    ~seed:1
    ~passes:(Flow.Engine.of_goal ~effort:1 `Size)
    g

let test_cutoff_incremental () =
  let ctx = Lsutil.Ctx.create () in
  let net = Helpers.random_network ~seed:21 ~inputs:6 ~gates:60 ~outputs:5 in
  let m = mig_of ~ctx net in
  (* fingerprints: stable across independent rebuilds of the same
     structure, changed by the salt *)
  let fps salt g =
    List.map (fun (_, s) -> Flow.Cutoff.fingerprint ~salt g s) (M.pos g)
  in
  Alcotest.(check (list string))
    "fingerprints rebuild-stable" (fps "r" m)
    (fps "r" (mig_of ~ctx net));
  Alcotest.(check bool)
    "salt changes fingerprints" false
    (fps "r" m = fps "r2" m);
  (* cold run optimizes everything and records every cone *)
  let salt = "test" in
  let r1 = Flow.Cutoff.run ~salt ~store:(Memo.empty_base ()) ~optimize:engine_optimize ~seed:1 m in
  Alcotest.(check int) "cold: nothing reused" 0 r1.Flow.Cutoff.reused;
  Alcotest.(check bool) "cold: recorded cones" true (r1.Flow.Cutoff.delta <> []);
  let store = Memo.merge (Memo.empty_base ()) [ r1.Flow.Cutoff.delta ] in
  (* warm run on the identical input stitches every output *)
  let r2 =
    Flow.Cutoff.run ~salt ~store ~optimize:engine_optimize ~seed:1 (mig_of ~ctx net)
  in
  Alcotest.(check int) "warm: all reused" (N.num_pos net) r2.Flow.Cutoff.reused;
  Alcotest.(check int) "warm: none re-optimized" 0 r2.Flow.Cutoff.reoptimized;
  Alcotest.(check bool)
    "warm result bit-identical to cold" true
    (graph_fp r1.Flow.Cutoff.graph = graph_fp r2.Flow.Cutoff.graph);
  (* a one-output edit re-optimizes exactly that cone, and the
     stitched result is equivalent to the edited input *)
  let edited = mig_of ~ctx (complement_po 0 net) in
  let r3 = Flow.Cutoff.run ~salt ~store ~optimize:engine_optimize ~seed:1 edited in
  Alcotest.(check int)
    "edit: one output re-optimized" 1 r3.Flow.Cutoff.reoptimized;
  Alcotest.(check int)
    "edit: the rest stitched"
    (N.num_pos net - 1)
    r3.Flow.Cutoff.reused;
  Alcotest.(check bool) "edit: no fallback" false r3.Flow.Cutoff.fallback;
  Alcotest.(check bool)
    "edit: stitched graph equivalent to edited input" true
    (Mig.Equiv.migs ~seed:3 edited r3.Flow.Cutoff.graph)

(* ----- Flow.Batch over a shared Flow.Cache ----- *)

let batch_items =
  List.map
    (fun (name, seed) ->
      {
        B.name;
        build =
          (fun () ->
            Helpers.random_network ~seed ~inputs:5 ~gates:30 ~outputs:3);
      })
    [ ("alpha", 3); ("bravo", 14); ("charlie", 15); ("delta", 92) ]

let outcome_fp (o : B.outcome) =
  ( o.B.name,
    o.B.size_in,
    o.B.depth_in,
    o.B.size_out,
    o.B.depth_out,
    o.B.report.Flow.Engine.verified,
    o.B.report.Flow.Engine.degraded,
    o.B.cache )

let test_batch_shared_cache () =
  let spec = { B.default_spec with B.effort = 1 } in
  (* every worker checks and sanitizes: a stitched answer that fails
     the miter, or a cross-domain access to the shared snapshot, fails
     the test *)
  let make_ctx _ _ = Lsutil.Ctx.create ~check:true ~san:true () in
  let run jobs =
    let cache = Flow.Cache.in_memory () in
    let out = B.run ~jobs ~spec ~make_ctx ~cache batch_items in
    (out, cache)
  in
  let seq, c_seq = run 1 in
  let par, c_par = run 2 in
  Alcotest.(check bool)
    "jobs=2 outcomes identical to jobs=1" true
    (List.map outcome_fp seq = List.map outcome_fp par);
  Alcotest.(check bool)
    "jobs=2 absorbed store identical to jobs=1" true
    (Flow.Cache.sizes c_seq = Flow.Cache.sizes c_par);
  List.iter
    (fun (o : B.outcome) ->
      Alcotest.(check bool)
        (o.B.name ^ " verified") true o.B.report.Flow.Engine.verified)
    par;
  (* a warm second pass over the same shared cache stitches every
     output, in parallel, still bit-identically *)
  let warm = B.run ~jobs:2 ~spec ~make_ctx ~cache:c_par batch_items in
  List.iter
    (fun (o : B.outcome) ->
      match o.B.cache with
      | Some u ->
          Alcotest.(check int) (o.B.name ^ " nothing re-optimized") 0
            u.B.reopt_pos;
          Alcotest.(check bool)
            (o.B.name ^ " outputs stitched") true (u.B.reused_pos > 0)
      | None -> Alcotest.fail (o.B.name ^ ": no cache counters"))
    warm;
  let strip (o : B.outcome) =
    (o.B.name, o.B.size_out, o.B.depth_out)
  in
  Alcotest.(check bool)
    "warm QoR identical to cold" true
    (List.map strip warm = List.map strip seq)

let () =
  Alcotest.run "rwcache"
    [
      ( "memo",
        [
          Alcotest.test_case "snapshot/delta/merge" `Quick test_memo_basics;
          Alcotest.test_case "on-disk envelope" `Quick test_memo_envelope;
        ] );
      ( "lookup",
        [
          prop_lookup_localizes;
          prop_lookup_npn_share;
          Alcotest.test_case "persistence" `Quick test_rwcache_persist;
          Alcotest.test_case "poisoned hit rejected" `Quick
            test_poisoned_hit_rejected;
        ] );
      ( "identity",
        [
          Alcotest.test_case "cold = warm" `Quick test_opt_cache_identity;
          Alcotest.test_case "guarded with warm cache" `Quick
            test_guarded_warm_cache;
        ] );
      ( "cutoff",
        [ Alcotest.test_case "incremental stitch" `Quick test_cutoff_incremental ] );
      ( "batch",
        [ Alcotest.test_case "shared cache" `Quick test_batch_shared_cache ] );
    ]
