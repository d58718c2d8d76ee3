(* Benchmark harness: regenerates every table and figure of
   "Majority-Inverter Graph: A Novel Data-Structure and Algorithms for
   Efficient Logic Optimization" (DAC'14).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1-top table1-bottom fig1 fig2 \
                                  fig3 fig4 compress ablation bechamel smoke
     dune exec bench/main.exe -- --json BENCH_run.json table1-top ...

   Environment:
     MIG_BENCH_FULL=1   run the compression benchmark at paper scale
                        (~0.3 M nodes) and the parmig stress graph at
                        2 M nodes instead of the scaled defaults. *)

module N = Network.Graph
module J = Lsutil.Json
module T = Lsutil.Telemetry

(* One execution context for the whole harness, honouring the MIG_*
   environment; the [batch] section builds its own per-circuit
   contexts on top. *)
let ctx = Lsutil.Ctx.default ()
let tel = Lsutil.Ctx.stats ctx

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* --json PATH: machine-readable records (schema "mighty-bench/1")     *)
(* ------------------------------------------------------------------ *)

(* Sections append records as they print; the main driver writes the
   collected document at exit.  Validated by bench/json_lint.exe. *)
let json_records : J.t list ref = ref []
let emit r = json_records := r :: !json_records
let span_json = function None -> J.Null | Some node -> T.to_json node

let opt_json (r : Flow.opt_result) =
  J.Obj
    [
      ("size", J.Int r.Flow.size);
      ("depth", J.Int r.Flow.depth);
      ("activity", J.Float r.Flow.activity);
      ("time_s", J.Float r.Flow.time);
      ("guard_time_s", J.Float r.Flow.guard_time);
    ]

(* The goal's paper script through the pass engine: the optimizer
   every entry point builds with [Flow.Batch.optimizer_of_spec]. *)
let engine_opt ?(effort = Flow.Batch.default_spec.effort) goal m =
  fst
    (Flow.Batch.optimizer_of_spec
       { Flow.Batch.default_spec with goal; effort }
       m)

let syn_json (s : Flow.syn_result) =
  J.Obj
    [
      ("area", J.Float s.Flow.area);
      ("delay_ns", J.Float s.Flow.delay);
      ("power_uw", J.Float s.Flow.power);
      ("time_s", J.Float s.Flow.time);
    ]

(* ------------------------------------------------------------------ *)
(* Table I (top): logic optimization                                   *)
(* ------------------------------------------------------------------ *)

type top_row = {
  bname : string;
  io : int * int;
  mig : Flow.opt_result;
  aig : Flow.opt_result;
  bdd : Flow.opt_result option;
  checks_ok : bool;
  spans : J.t;  (** per-pass telemetry trees, [Null] unless recording *)
}

let table1_top_rows =
  lazy
    (List.map
       (fun e ->
         let net = e.Benchmarks.Suite.build () in
         let flat = N.flatten_aoig net in
         let (mig_g, mig), mig_span =
           T.capture tel "mig_opt" (fun () -> Flow.mig_opt ctx net)
         in
         let (aig_g, aig), aig_span =
           T.capture tel "aig_opt" (fun () -> Flow.aig_opt ctx net)
         in
         let bdd_res, bdd_span =
           T.capture tel "bds_opt" (fun () -> Flow.bds_opt ~seed:0xbd5 ctx net)
         in
         let mig_ok = Mig.Equiv.to_network_equiv ~seed:11 mig_g flat in
         let aig_ok =
           Network.Simulate.equivalent ~seed:12
             (Aig.Convert.to_network aig_g)
             flat
         in
         let bdd_ok =
           match bdd_res with
           | None -> true
           | Some (d, _) -> Network.Simulate.equivalent ~seed:13 d flat
         in
         {
           bname = e.Benchmarks.Suite.name;
           io = e.Benchmarks.Suite.paper_io;
           mig;
           aig;
           bdd = Option.map snd bdd_res;
           checks_ok = mig_ok && aig_ok && bdd_ok;
           spans =
             J.Obj
               [
                 ("mig", span_json mig_span);
                 ("aig", span_json aig_span);
                 ("bdd", span_json bdd_span);
               ];
         })
       Benchmarks.Suite.all)

let emit_top_row r =
  let pi, po = r.io in
  emit
    (J.Obj
       [
         ("section", J.String "table1-top");
         ("name", J.String r.bname);
         ("pi", J.Int pi);
         ("po", J.Int po);
         ("mig", opt_json r.mig);
         ("aig", opt_json r.aig);
         ("bdd", match r.bdd with Some b -> opt_json b | None -> J.Null);
         ("checks_ok", J.Bool r.checks_ok);
         ("spans", r.spans);
       ])

let avg f rows =
  List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows)

let print_table1_top () =
  section "Table I (top) - Logic optimization: MIG vs AIG vs BDD decomposition";
  Printf.printf
    "%-9s %-9s | %6s %5s %9s %6s | %6s %5s %9s %6s | %6s %5s %9s %6s\n"
    "Bench" "I/O" "MIGsz" "MIGd" "MIGact" "t(s)" "AIGsz" "AIGd" "AIGact"
    "t(s)" "BDDsz" "BDDd" "BDDact" "t(s)";
  let rows = Lazy.force table1_top_rows in
  List.iter
    (fun r ->
      let pi, po = r.io in
      Printf.printf
        "%-9s %4d/%-4d | %6d %5d %9.2f %6.2f | %6d %5d %9.2f %6.2f | "
        r.bname pi po r.mig.Flow.size r.mig.Flow.depth r.mig.Flow.activity
        r.mig.Flow.time r.aig.Flow.size r.aig.Flow.depth r.aig.Flow.activity
        r.aig.Flow.time;
      (match r.bdd with
      | Some b ->
          Printf.printf "%6d %5d %9.2f %6.2f" b.Flow.size b.Flow.depth
            b.Flow.activity b.Flow.time
      | None -> Printf.printf "%6s %5s %9s %6s" "N.A." "N.A." "N.A." "N.A.");
      if not r.checks_ok then Printf.printf "  [EQUIVALENCE FAILURE]";
      Printf.printf "\n%!";
      emit_top_row r)
    rows;
  let m f = avg f rows in
  Printf.printf
    "%-9s %9s | %6.0f %5.1f %9.2f %6.2f | %6.0f %5.1f %9.2f %6.2f |"
    "Average" ""
    (m (fun r -> float_of_int r.mig.Flow.size))
    (m (fun r -> float_of_int r.mig.Flow.depth))
    (m (fun r -> r.mig.Flow.activity))
    (m (fun r -> r.mig.Flow.time))
    (m (fun r -> float_of_int r.aig.Flow.size))
    (m (fun r -> float_of_int r.aig.Flow.depth))
    (m (fun r -> r.aig.Flow.activity))
    (m (fun r -> r.aig.Flow.time));
  let bdd_rows = List.filter_map (fun r -> r.bdd) rows in
  if bdd_rows <> [] then begin
    let mb f = avg f bdd_rows in
    Printf.printf " %6.0f %5.1f %9.2f %6.2f (over %d benchmarks)"
      (mb (fun (b : Flow.opt_result) -> float_of_int b.Flow.size))
      (mb (fun b -> float_of_int b.Flow.depth))
      (mb (fun b -> b.Flow.activity))
      (mb (fun b -> b.Flow.time))
      (List.length bdd_rows)
  end;
  Printf.printf "\n\n";
  let depth_ratio =
    m (fun r -> float_of_int r.mig.Flow.depth /. float_of_int r.aig.Flow.depth)
  in
  let size_ratio =
    m (fun r -> float_of_int r.mig.Flow.size /. float_of_int r.aig.Flow.size)
  in
  let act_ratio = m (fun r -> r.mig.Flow.activity /. r.aig.Flow.activity) in
  Printf.printf
    "MIG vs AIG (mean of per-benchmark ratios): depth %+.1f%%, size %+.1f%%, activity %+.1f%%\n"
    ((depth_ratio -. 1.0) *. 100.0)
    ((size_ratio -. 1.0) *. 100.0)
    ((act_ratio -. 1.0) *. 100.0);
  Printf.printf "Paper reports: depth -18.6%%, size +0.9%%, activity +0.3%%\n";
  let with_bdd = List.filter (fun r -> r.bdd <> None) rows in
  if with_bdd <> [] then begin
    let dr =
      avg
        (fun r ->
          float_of_int r.mig.Flow.depth
          /. float_of_int (Option.get r.bdd).Flow.depth)
        with_bdd
    in
    Printf.printf
      "MIG vs BDD-decomposition: depth %+.1f%% (paper: -23.7%%), over %d benchmarks\n"
      ((dr -. 1.0) *. 100.0)
      (List.length with_bdd)
  end

(* ------------------------------------------------------------------ *)
(* Table I (bottom): synthesis                                         *)
(* ------------------------------------------------------------------ *)

type bot_row = {
  sname : string;
  sio : int * int;
  smig : Flow.syn_result;
  saig : Flow.syn_result;
  scst : Flow.syn_result;
}

let table1_bottom_rows =
  lazy
    (List.map
       (fun e ->
         let net = e.Benchmarks.Suite.build () in
         {
           sname = e.Benchmarks.Suite.name;
           sio = e.Benchmarks.Suite.paper_io;
           smig = Flow.mig_synth ctx net;
           saig = Flow.aig_synth ctx net;
           scst = Flow.cst_synth ctx net;
         })
       Benchmarks.Suite.all)

let print_table1_bottom () =
  section
    "Table I (bottom) - Synthesis: MIG+map vs AIG+map vs commercial proxy";
  Printf.printf "%-9s %-9s | %9s %7s %9s | %9s %7s %9s | %9s %7s %9s\n"
    "Bench" "I/O" "MIG A" "D(ns)" "P(uW)" "AIG A" "D(ns)" "P(uW)" "CST A"
    "D(ns)" "P(uW)";
  let rows = Lazy.force table1_bottom_rows in
  List.iter
    (fun r ->
      let pi, po = r.sio in
      Printf.printf
        "%-9s %4d/%-4d | %9.2f %7.3f %9.2f | %9.2f %7.3f %9.2f | %9.2f %7.3f %9.2f\n%!"
        r.sname pi po r.smig.Flow.area r.smig.Flow.delay r.smig.Flow.power
        r.saig.Flow.area r.saig.Flow.delay r.saig.Flow.power r.scst.Flow.area
        r.scst.Flow.delay r.scst.Flow.power;
      emit
        (J.Obj
           [
             ("section", J.String "table1-bottom");
             ("name", J.String r.sname);
             ("pi", J.Int pi);
             ("po", J.Int po);
             ("mig", syn_json r.smig);
             ("aig", syn_json r.saig);
             ("cst", syn_json r.scst);
           ]))
    rows;
  let m f = avg f rows in
  Printf.printf
    "%-9s %9s | %9.2f %7.3f %9.2f | %9.2f %7.3f %9.2f | %9.2f %7.3f %9.2f\n\n"
    "Average" ""
    (m (fun r -> r.smig.Flow.area))
    (m (fun r -> r.smig.Flow.delay))
    (m (fun r -> r.smig.Flow.power))
    (m (fun r -> r.saig.Flow.area))
    (m (fun r -> r.saig.Flow.delay))
    (m (fun r -> r.saig.Flow.power))
    (m (fun r -> r.scst.Flow.area))
    (m (fun r -> r.scst.Flow.delay))
    (m (fun r -> r.scst.Flow.power));
  let gain f g h =
    m (fun r -> f r /. Float.min (g r) (h r))
  in
  let d_gain =
    gain (fun r -> r.smig.Flow.delay) (fun r -> r.saig.Flow.delay)
      (fun r -> r.scst.Flow.delay)
  in
  let a_gain =
    gain (fun r -> r.smig.Flow.area) (fun r -> r.saig.Flow.area)
      (fun r -> r.scst.Flow.area)
  in
  let p_gain =
    gain (fun r -> r.smig.Flow.power) (fun r -> r.saig.Flow.power)
      (fun r -> r.scst.Flow.power)
  in
  Printf.printf
    "MIG flow vs best counterpart (mean of ratios): delay %+.1f%%, area %+.1f%%, power %+.1f%%\n"
    ((d_gain -. 1.0) *. 100.0)
    ((a_gain -. 1.0) *. 100.0)
    ((p_gain -. 1.0) *. 100.0);
  Printf.printf "Paper reports: delay -22%%, area -14%%, power -11%%\n"

(* ------------------------------------------------------------------ *)
(* Fig. 1: AOIG -> MIG transposition examples                          *)
(* ------------------------------------------------------------------ *)

let print_fig1 () =
  section "Fig. 1 - MIG representations derived from optimal AOIGs";
  let show name net =
    let flat = N.flatten_aoig net in
    let m = Mig.Convert.of_network flat in
    Printf.printf
      "%-12s AOIG: size=%d depth=%d | transposed MIG: size=%d depth=%d\n" name
      (N.size flat)
      (Network.Metrics.depth flat)
      (Mig.Graph.size m) (Mig.Graph.depth m)
  in
  let xor3 = N.create () in
  let x = N.add_pi xor3 "x" and y = N.add_pi xor3 "y" and z = N.add_pi xor3 "z" in
  N.add_po xor3 "f" (N.xor_ xor3 (N.xor_ xor3 x y) z);
  show "f=x^y^z" xor3;
  let g = N.create () in
  let x = N.add_pi g "x" and y = N.add_pi g "y" in
  let u = N.add_pi g "u" and v = N.add_pi g "v" in
  N.add_po g "g" (N.and_ g x (N.or_ g y (N.and_ g u v)));
  show "g=x(y+uv)" g;
  Printf.printf
    "(Theorem 3.1: every AND/OR node becomes a majority node with a constant\n\
    \ third input, so the transposed MIG matches the AOIG node-for-node.)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 2: the four optimization case studies                          *)
(* ------------------------------------------------------------------ *)

(* apply a function to operand [i] of a majority term *)
let at3 i f t =
  match t with
  | Mig.Algebra.Maj (a, b, c) -> (
      match i with
      | 0 -> Mig.Algebra.Maj (f a, b, c)
      | 1 -> Mig.Algebra.Maj (a, f b, c)
      | _ -> Mig.Algebra.Maj (a, b, f c))
  | _ -> t

let print_fig2 () =
  section "Fig. 2 - MIG optimization examples (size, depth, activity)";
  let module A = Mig.Algebra in
  let v s = A.Var s in
  let show label t =
    Printf.printf "  %-5s %s\n" label (Format.asprintf "%a" A.pp t)
  in
  (* --- (a) size: h = M(x, M(x,z',w), M(x,y,z)) -> x --- *)
  let h0 =
    A.Maj
      (v "x", A.Maj (v "x", A.Not (v "z"), v "w"), A.Maj (v "x", v "y", v "z"))
  in
  Printf.printf "(a) h = %s   (size %d)\n" (Format.asprintf "%a" A.pp h0)
    (A.size h0);
  (* Ω.C: arrange as M(B, x, M(z', x, w)) so Ω.A applies with shared x *)
  let t = Option.get (A.commute 0 2 h0) in
  let t = Option.get (A.commute 1 2 t) in
  let t = at3 2 (fun inner -> Option.get (A.commute 0 1 inner)) t in
  assert (A.equivalent h0 t);
  show "Ω.C" t;
  (* Ω.A: swap w with B = M(x,y,z) *)
  let t = Option.get (A.associativity t) in
  assert (A.equivalent h0 t);
  show "Ω.A" t;
  (* Ψ.R on the inner term M(z', x, B): z (as z'') becomes x inside B *)
  let t = at3 2 (fun inner -> Option.get (A.relevance inner)) t in
  assert (A.equivalent h0 t);
  show "Ψ.R" t;
  let t = A.simplify t in
  assert (A.equivalent h0 t);
  Printf.printf "  Ω.M   %s   (size %d; paper reaches x, size 0)\n"
    (Format.asprintf "%a" A.pp t) (A.size t);
  (* --- (b) depth: f = x^y^z via Ψ.S --- *)
  let aoig_xor a b =
    A.Maj
      ( A.Maj (a, A.Not b, A.Const false),
        A.Maj (A.Not a, b, A.Const false),
        A.Const true )
  in
  let f0 = aoig_xor (aoig_xor (v "x") (v "y")) (v "z") in
  Printf.printf "(b) f = x^y^z as transposed AOIG: size %d, depth %d\n"
    (A.size f0) (A.depth f0);
  let f1 = A.substitution ~v:(v "x") ~u:(v "y") f0 in
  assert (A.equivalent f0 f1);
  Printf.printf "  Ψ.S(v=x,u=y): size %d, depth %d (temporarily inflated)\n"
    (A.size f1) (A.depth f1);
  let f2 = A.simplify f1 in
  assert (A.equivalent f0 f2);
  Printf.printf "  Ω.M: %s   size %d, depth %d (paper: 3 nodes, 2 levels)\n"
    (Format.asprintf "%a" A.pp f2) (A.size f2) (A.depth f2);
  (* --- (c) depth: g = x(y+uv) through the full optimizer --- *)
  let g = N.create () in
  let x = N.add_pi g "x" and y = N.add_pi g "y" in
  let u = N.add_pi g "u" and vv = N.add_pi g "v" in
  N.add_po g "g" (N.and_ g x (N.or_ g y (N.and_ g u vv)));
  let m0 = Mig.Convert.of_network (N.flatten_aoig g) in
  let m1 = engine_opt `Depth m0 in
  assert (Mig.Equiv.to_network_equiv ~seed:21 m1 g);
  Printf.printf
    "(c) g = x(y+uv): transposed depth %d -> optimized depth %d (paper: 3 -> 2)\n"
    (Mig.Graph.depth m0) (Mig.Graph.depth m1);
  (* --- (d) activity: k = M(x,y,M(x',z,w)) with skewed inputs --- *)
  let probs = function "x" -> 0.5 | _ -> 0.1 in
  let k0 =
    let g = Mig.Graph.create () in
    let x = Mig.Graph.add_pi g "x" in
    let y = Mig.Graph.add_pi g "y" in
    let z = Mig.Graph.add_pi g "z" in
    let w = Mig.Graph.add_pi g "w" in
    Mig.Graph.add_po g "k"
      (Mig.Graph.maj g x y (Mig.Graph.maj g (Network.Signal.not_ x) z w));
    g
  in
  (* the activity goal's script, ranked by activity under the skewed
     input probabilities *)
  let k1, _ =
    Flow.Engine.run
      ~passes:(Flow.Engine.of_goal `Activity)
      ~cost:(fun g ->
        ( Mig.Activity.total ~pi_prob:probs g,
          float_of_int (Mig.Graph.size g) ))
      k0
  in
  assert (Mig.Equiv.migs ~seed:23 k0 k1);
  Printf.printf
    "(d) k = M(x,y,M(x',z,w)), p(x)=0.5, p(y,z,w)=0.1:\n\
    \    activity %.3f -> %.3f after activity optimization (paper: 0.18 -> 0.09)\n"
    (Mig.Activity.total ~pi_prob:probs k0)
    (Mig.Activity.total ~pi_prob:probs k1)

(* ------------------------------------------------------------------ *)
(* Fig. 3 / Fig. 4: the 3-D clouds as printed series                   *)
(* ------------------------------------------------------------------ *)

let print_fig3 () =
  section "Fig. 3 - Optimization space (size, depth, activity) series";
  let rows = Lazy.force table1_top_rows in
  Printf.printf "series MIG:\n";
  List.iter
    (fun r ->
      Printf.printf "  (%d, %d, %.2f)  # %s\n" r.mig.Flow.size r.mig.Flow.depth
        r.mig.Flow.activity r.bname)
    rows;
  Printf.printf "series AIG:\n";
  List.iter
    (fun r ->
      Printf.printf "  (%d, %d, %.2f)  # %s\n" r.aig.Flow.size r.aig.Flow.depth
        r.aig.Flow.activity r.bname)
    rows;
  Printf.printf "series BDD:\n";
  List.iter
    (fun r ->
      match r.bdd with
      | Some b ->
          Printf.printf "  (%d, %d, %.2f)  # %s\n" b.Flow.size b.Flow.depth
            b.Flow.activity r.bname
      | None -> Printf.printf "  N.A.  # %s\n" r.bname)
    rows

let print_fig4 () =
  section "Fig. 4 - Synthesis space (area, delay, power) series";
  let rows = Lazy.force table1_bottom_rows in
  let series name f =
    Printf.printf "series %s:\n" name;
    List.iter
      (fun r ->
        let (s : Flow.syn_result) = f r in
        Printf.printf "  (%.2f, %.3f, %.2f)  # %s\n" s.Flow.area s.Flow.delay
          s.Flow.power r.sname)
      rows
  in
  series "MIG" (fun r -> r.smig);
  series "AIG" (fun r -> r.saig);
  series "CST" (fun r -> r.scst)

(* ------------------------------------------------------------------ *)
(* SV.A.2: the large compression circuit                               *)
(* ------------------------------------------------------------------ *)

let print_compress () =
  section "Large compression circuit (SV.A.2)";
  let full = Sys.getenv_opt "MIG_BENCH_FULL" = Some "1" in
  let window = if full then 110 else 36 in
  let net = Benchmarks.Suite.compression ~window () in
  let flat = N.flatten_aoig net in
  Printf.printf
    "window=%d: flattened AOIG has %d nodes (paper instance: ~0.3M; set\n\
     MIG_BENCH_FULL=1 for the full-scale run)\n%!"
    window (N.size flat);
  let (a, t_aig), aig_span =
    T.capture tel "compress:aig" (fun () ->
        T.time (fun () -> Aig.Resyn.run ~effort:1 (Aig.Convert.of_network flat)))
  in
  Printf.printf
    "AIG:  %d nodes, %d levels, %.1fs (paper: 167k nodes, 31 levels, 11.3s)\n%!"
    (Aig.Graph.size a) (Aig.Graph.depth a) t_aig;
  let (m, t_mig), mig_span =
    T.capture tel "compress:mig" (fun () ->
        T.time (fun () -> engine_opt `Depth (Mig.Convert.of_network flat)))
  in
  Printf.printf
    "MIG:  %d nodes, %d levels, %.1fs (paper: 170k +1.7%%, 28 levels -9.6%%, 21.5s)\n"
    (Mig.Graph.size m) (Mig.Graph.depth m) t_mig;
  Printf.printf "delta: size %+.1f%%, levels %+.1f%%, runtime x%.1f\n"
    ((float_of_int (Mig.Graph.size m) /. float_of_int (Aig.Graph.size a) -. 1.0)
    *. 100.0)
    ((float_of_int (Mig.Graph.depth m) /. float_of_int (Aig.Graph.depth a)
     -. 1.0)
    *. 100.0)
    (t_mig /. Float.max 0.001 t_aig);
  emit
    (J.Obj
       [
         ("section", J.String "compress");
         ("name", J.String "compression");
         ("window", J.Int window);
         ("aoig_nodes", J.Int (N.size flat));
         ( "aig",
           J.Obj
             [
               ("size", J.Int (Aig.Graph.size a));
               ("depth", J.Int (Aig.Graph.depth a));
               ("time_s", J.Float t_aig);
             ] );
         ( "mig",
           J.Obj
             [
               ("size", J.Int (Mig.Graph.size m));
               ("depth", J.Int (Mig.Graph.depth m));
               ("time_s", J.Float t_mig);
             ] );
         ( "spans",
           J.Obj [ ("aig", span_json aig_span); ("mig", span_json mig_span) ] );
       ])

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md SS6)                                           *)
(* ------------------------------------------------------------------ *)

let print_ablation () =
  section "Ablations";
  let net =
    N.flatten_aoig ((Benchmarks.Suite.find "cla").Benchmarks.Suite.build ())
  in
  let m0 = Mig.Convert.of_network net in
  Printf.printf "cla, depth-optimization effort sweep:\n";
  List.iter
    (fun e ->
      let m = engine_opt ~effort:e `Depth m0 in
      Printf.printf "  effort=%d: size=%d depth=%d\n%!" e (Mig.Graph.size m)
        (Mig.Graph.depth m))
    [ 1; 2; 4 ];
  Printf.printf "cla, individual passes:\n";
  let show name g =
    Printf.printf "  %-22s size=%d depth=%d\n%!" name (Mig.Graph.size g)
      (Mig.Graph.depth g)
  in
  show "initial (transposed)" m0;
  show "rewrite_patterns" (Mig.Transform.rewrite_patterns m0);
  show "push_up only" (Mig.Transform.push_up m0);
  show "eliminate only" (Mig.Transform.eliminate m0);
  show "relevance only" (Mig.Transform.relevance m0);
  let madd =
    N.flatten_aoig
      ((Benchmarks.Suite.find "my_adder").Benchmarks.Suite.build ())
  in
  let opt = engine_opt `Depth (Mig.Convert.of_network madd) in
  let sub = Mig.Convert.to_network opt in
  let with_maj = Tech.Mapper.map_network ~ctx sub in
  let without = Tech.Mapper.map_network ~ctx ~lib:Tech.Cells.no_majority sub in
  Printf.printf
    "my_adder mapping ablation:\n\
    \  full library  A=%.2f D=%.3f P=%.2f\n\
    \  no MAJ cells  A=%.2f D=%.3f P=%.2f\n"
    with_maj.Tech.Mapper.area with_maj.Tech.Mapper.delay
    with_maj.Tech.Mapper.power without.Tech.Mapper.area
    without.Tech.Mapper.delay without.Tech.Mapper.power

(* ------------------------------------------------------------------ *)
(* Bechamel timing suites (one per table/figure family)                *)
(* ------------------------------------------------------------------ *)

let print_bechamel () =
  section "Bechamel timing (estimated time per flow run, 'count' benchmark)";
  let open Bechamel in
  let net =
    lazy
      (N.flatten_aoig ((Benchmarks.Suite.find "count").Benchmarks.Suite.build ()))
  in
  let tests =
    [
      Test.make ~name:"table1_top/mig_opt"
        (Staged.stage (fun () -> ignore (Flow.mig_opt ctx (Lazy.force net))));
      Test.make ~name:"table1_top/aig_opt"
        (Staged.stage (fun () -> ignore (Flow.aig_opt ctx (Lazy.force net))));
      Test.make ~name:"table1_top/bds_opt"
        (Staged.stage (fun () -> ignore (Flow.bds_opt ~seed:1 ctx (Lazy.force net))));
      Test.make ~name:"table1_bottom/mig_synth"
        (Staged.stage (fun () -> ignore (Flow.mig_synth ctx (Lazy.force net))));
      Test.make ~name:"table1_bottom/aig_synth"
        (Staged.stage (fun () -> ignore (Flow.aig_synth ctx (Lazy.force net))));
      Test.make ~name:"table1_bottom/cst_synth"
        (Staged.stage (fun () -> ignore (Flow.cst_synth ctx (Lazy.force net))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:10 ~quota:(Time.second 2.0) ~kde:None () in
  let witness = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ witness ] elt in
          let ols =
            Analyze.one
              (Analyze.ols ~r_square:false ~bootstrap:0
                 ~predictors:[| Measure.run |])
              witness raw
          in
          let record est =
            emit
              (J.Obj
                 [
                   ("section", J.String "bechamel");
                   ("name", J.String (Test.Elt.name elt));
                   ("ms_per_run", est);
                 ])
          in
          match Analyze.OLS.estimates ols with
          | Some (t :: _) ->
              Printf.printf "  %-28s %10.3f ms/run\n%!" (Test.Elt.name elt)
                (t /. 1e6);
              record (J.Float (t /. 1e6))
          | _ ->
              Printf.printf "  %-28s (no estimate)\n%!" (Test.Elt.name elt);
              record J.Null)
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)
(* Smoke: one small benchmark with telemetry forced on.  Fast enough   *)
(* for CI, yet exercises the full record schema including spans.       *)
(* ------------------------------------------------------------------ *)

let print_smoke () =
  section "Smoke - 'count' benchmark with per-pass telemetry";
  let e = Benchmarks.Suite.find "count" in
  let net = e.Benchmarks.Suite.build () in
  let was = T.enabled tel in
  T.set_enabled tel true;
  let (mig_g, mig), mig_span =
    T.capture tel "mig_opt" (fun () -> Flow.mig_opt ~effort:1 ctx net)
  in
  let (aig_g, aig), aig_span =
    T.capture tel "aig_opt" (fun () -> Flow.aig_opt ~effort:1 ctx net)
  in
  T.set_enabled tel was;
  let flat = N.flatten_aoig net in
  let checks_ok =
    Mig.Equiv.to_network_equiv ~seed:31 mig_g flat
    && Network.Simulate.equivalent ~seed:32 (Aig.Convert.to_network aig_g) flat
  in
  Printf.printf "MIG: size=%d depth=%d t=%.3fs | AIG: size=%d depth=%d t=%.3fs%s\n"
    mig.Flow.size mig.Flow.depth mig.Flow.time aig.Flow.size aig.Flow.depth
    aig.Flow.time
    (if checks_ok then "" else "  [EQUIVALENCE FAILURE]");
  Option.iter (Format.printf "%a@." T.pp) mig_span;
  emit
    (J.Obj
       [
         ("section", J.String "smoke");
         ("name", J.String e.Benchmarks.Suite.name);
         ("mig", opt_json mig);
         ("aig", opt_json aig);
         ("checks_ok", J.Bool checks_ok);
         ( "spans",
           J.Obj [ ("mig", span_json mig_span); ("aig", span_json aig_span) ] );
       ])

(* ------------------------------------------------------------------ *)
(* Hotpath: core-engine microbenchmarks (maj construction, strash     *)
(* probes, pass rebuilds, optimizer wall-clock).  Telemetry is forced *)
(* OFF inside the measured regions so the numbers reflect the real    *)
(* hot path; the `calibration` record measures raw machine speed so   *)
(* throughputs can be compared across hosts (see bench/hotpath_gate). *)
(* ------------------------------------------------------------------ *)

let best_of n f =
  let best = ref infinity in
  let out = ref None in
  for _ = 1 to n do
    let r, t = T.time f in
    if t < !best then begin
      best := t;
      out := Some r
    end
  done;
  (Option.get !out, !best)

(* Machine-speed proxy: a fixed int-array read-modify-write loop.
   Dividing a throughput by this rate gives a host-independent figure
   of merit, so a committed baseline survives a slower CI runner. *)
let hotpath_calibrate () =
  let a = Array.make 4096 0 in
  let iters = 5_000_000 in
  let (), t =
    best_of 3 (fun () ->
        let acc = ref 0 in
        for i = 0 to iters - 1 do
          let j = i * 0x9e3779b1 land 4095 in
          Array.unsafe_set a j (Array.unsafe_get a j + i);
          acc := !acc lxor Array.unsafe_get a j
        done;
        ignore (Sys.opaque_identity !acc))
  in
  float_of_int iters /. t

(* Deterministic stream of maj calls over a bounded signal pool: the
   construction-throughput workload, also replayable for the all-hits
   strash probe measurement.  The pick sequence is precomputed into
   flat arrays outside the timed region — the pool indices and the
   RNG stream do not depend on the produced signals, only on the call
   count — so the measured loop is array reads plus [maj], not RNG
   arithmetic. *)
let hotpath_maj_calls = 300_000
let hotpath_pool = 1024
let hotpath_pis = 24

(* picks.(3i+k) packs (pool index lsl 1) lor complement for fanin k of
   call i; slots.(i) is the pool slot the result overwrites *)
let hotpath_plan () =
  let rng = Lsutil.Rng.create 0x407 in
  let picks = Array.make (3 * hotpath_maj_calls) 0 in
  let slots = Array.make hotpath_maj_calls 0 in
  let filled = ref hotpath_pis in
  for i = 0 to hotpath_maj_calls - 1 do
    for k = 0 to 2 do
      let idx = Lsutil.Rng.int rng !filled in
      picks.((3 * i) + k) <-
        (idx lsl 1) lor (if Lsutil.Rng.bool rng then 1 else 0)
    done;
    if !filled < hotpath_pool then begin
      slots.(i) <- !filled;
      incr filled
    end
    else slots.(i) <- Lsutil.Rng.int rng hotpath_pool
  done;
  (picks, slots)

(* fresh graph + PIs; returns the initial pool of packed signals *)
let hotpath_setup g =
  let module MG = Mig.Graph in
  let module S = Network.Signal in
  let pool = Array.make hotpath_pool (MG.const0 g : S.t :> int) in
  for i = 0 to hotpath_pis - 1 do
    pool.(i) <- (MG.add_pi g (Printf.sprintf "hp%d" i) : S.t :> int)
  done;
  pool

let hotpath_drive g pool (picks, slots) =
  let module MG = Mig.Graph in
  let module S = Network.Signal in
  for i = 0 to hotpath_maj_calls - 1 do
    let b = 3 * i in
    let p0 = Array.unsafe_get picks b in
    let p1 = Array.unsafe_get picks (b + 1) in
    let p2 = Array.unsafe_get picks (b + 2) in
    let a = Array.unsafe_get pool (p0 lsr 1) lxor (p0 land 1) in
    let bs = Array.unsafe_get pool (p1 lsr 1) lxor (p1 land 1) in
    let c = Array.unsafe_get pool (p2 lsr 1) lxor (p2 land 1) in
    let s =
      MG.maj g (S.unsafe_of_int a) (S.unsafe_of_int bs) (S.unsafe_of_int c)
    in
    Array.unsafe_set pool (Array.unsafe_get slots i) (s : S.t :> int)
  done

let hotpath_table1_mig name =
  let e = Benchmarks.Suite.find name in
  Mig.Convert.of_network (N.flatten_aoig (e.Benchmarks.Suite.build ()))

let print_hotpath () =
  section "Hotpath - core engine microbenchmarks";
  let module MG = Mig.Graph in
  let was = T.enabled tel in
  T.set_enabled tel false;
  Fun.protect ~finally:(fun () -> T.set_enabled tel was) @@ fun () ->
  let cal = hotpath_calibrate () in
  Printf.printf "  %-28s %12.3e ops/s\n%!" "calibration (int loop)" cal;
  emit
    (J.Obj
       [
         ("section", J.String "hotpath");
         ("name", J.String "calibration");
         ("ops_per_sec", J.Float cal);
       ]);
  let plan = hotpath_plan () in
  (* construction: mostly strash misses; pre-sized the way a real
     frontend would be (Convert.of_network reserves the same way) *)
  let (g, pool0), t_build = best_of 3 (fun () ->
      let g = MG.create () in
      MG.reserve g hotpath_maj_calls;
      let pool0 = hotpath_setup g in
      let pool = Array.copy pool0 in
      hotpath_drive g pool plan;
      (g, pool0))
  in
  let calls_per_sec = float_of_int hotpath_maj_calls /. t_build in
  Printf.printf "  %-28s %12.3e calls/s  (%d calls, %d majs, %.3fs)\n%!"
    "maj construction" calls_per_sec hotpath_maj_calls
    (MG.num_allocated_majs g) t_build;
  emit
    (J.Obj
       [
         ("section", J.String "hotpath");
         ("name", J.String "maj_construction");
         ("calls", J.Int hotpath_maj_calls);
         ("majs", J.Int (MG.num_allocated_majs g));
         ("time_s", J.Float t_build);
         ("calls_per_sec", J.Float calls_per_sec);
         ("calls_per_op", J.Float (calls_per_sec /. cal));
       ]);
  (* probe: replaying the identical stream from the same initial pool
     hits on every lookup — no node may be added *)
  let nodes_before_probe = MG.num_nodes g in
  let (), t_probe =
    best_of 3 (fun () -> hotpath_drive g (Array.copy pool0) plan)
  in
  assert (MG.num_nodes g = nodes_before_probe);
  let probes_per_sec = float_of_int hotpath_maj_calls /. t_probe in
  Printf.printf "  %-28s %12.3e probes/s (%.3fs)\n%!" "strash probe (all hits)"
    probes_per_sec t_probe;
  emit
    (J.Obj
       [
         ("section", J.String "hotpath");
         ("name", J.String "strash_probe");
         ("probes", J.Int hotpath_maj_calls);
         ("time_s", J.Float t_probe);
         ("probes_per_sec", J.Float probes_per_sec);
         ("probes_per_op", J.Float (probes_per_sec /. cal));
       ]);
  (* sanitizer cost: the identical construction stream under a ctx
     with the sanitizer off (one load-and-branch on an immediate tag)
     and on, plus a cleanup rebuild both ways.  The off figures are
     gated against the maj_construction baseline by hotpath_gate: the
     disabled sanitizer must stay within the normal tolerance. *)
  let san_build san =
    best_of 3 (fun () ->
        let ctx = Lsutil.Ctx.create ~san () in
        let g = MG.create ~ctx () in
        MG.reserve g hotpath_maj_calls;
        let pool = Array.copy (hotpath_setup g) in
        hotpath_drive g pool plan)
  in
  let (), t_off = san_build false in
  let (), t_on = san_build true in
  let off_cps = float_of_int hotpath_maj_calls /. t_off in
  let on_cps = float_of_int hotpath_maj_calls /. t_on in
  let san_rebuild san =
    let ctx = Lsutil.Ctx.create ~san () in
    let e = Benchmarks.Suite.find "cla" in
    let m =
      Mig.Convert.of_network ~ctx (N.flatten_aoig (e.Benchmarks.Suite.build ()))
    in
    let _, t = best_of 3 (fun () -> MG.cleanup m) in
    t
  in
  let rb_off = san_rebuild false in
  let rb_on = san_rebuild true in
  Printf.printf
    "  %-28s %12.3e calls/s off, %12.3e calls/s on (x%.2f); cleanup %.4fs \
     off, %.4fs on\n\
     %!"
    "sanitizer" off_cps on_cps (t_on /. t_off) rb_off rb_on;
  emit
    (J.Obj
       [
         ("section", J.String "hotpath");
         ("name", J.String "san");
         ("calls", J.Int hotpath_maj_calls);
         ("off_calls_per_sec", J.Float off_cps);
         ("off_calls_per_op", J.Float (off_cps /. cal));
         ("on_calls_per_sec", J.Float on_cps);
         ("on_calls_per_op", J.Float (on_cps /. cal));
         ("on_over_off", J.Float (t_on /. t_off));
         ("rebuild_off_s", J.Float rb_off);
         ("rebuild_on_s", J.Float rb_on);
       ]);
  (* per-pass rebuild cost on a real Table-I circuit *)
  List.iter
    (fun bname ->
      let m = hotpath_table1_mig bname in
      let _, t_cleanup = best_of 3 (fun () -> MG.cleanup m) in
      let _, t_elim = best_of 3 (fun () -> Mig.Transform.eliminate m) in
      Printf.printf "  %-28s cleanup %.4fs  eliminate %.4fs\n%!"
        (Printf.sprintf "rebuild (%s)" bname)
        t_cleanup t_elim;
      emit
        (J.Obj
           [
             ("section", J.String "hotpath");
             ("name", J.String ("rebuild:" ^ bname));
             ("cleanup_s", J.Float t_cleanup);
             ("eliminate_s", J.Float t_elim);
           ]))
    [ "cla"; "C6288" ];
  (* optimizer wall-clock over the Table-I generators; sizes/depths are
     recorded so a speedup can be shown to leave results unchanged *)
  let tot_size = ref 0.0 and tot_depth = ref 0.0 in
  List.iter
    (fun e ->
      let bname = e.Benchmarks.Suite.name in
      let m = hotpath_table1_mig bname in
      let ms, t_size = T.time (fun () -> engine_opt `Size m) in
      let md, t_depth = T.time (fun () -> engine_opt `Depth m) in
      tot_size := !tot_size +. t_size;
      tot_depth := !tot_depth +. t_depth;
      Printf.printf
        "  opt %-10s size: %5d/%-3d in %6.3fs   depth: %5d/%-3d in %6.3fs\n%!"
        bname (MG.size ms) (MG.depth ms) t_size (MG.size md) (MG.depth md)
        t_depth;
      emit
        (J.Obj
           [
             ("section", J.String "hotpath");
             ("name", J.String ("opt:" ^ bname));
             ( "opt_size",
               J.Obj
                 [
                   ("size", J.Int (MG.size ms));
                   ("depth", J.Int (MG.depth ms));
                   ("time_s", J.Float t_size);
                 ] );
             ( "opt_depth",
               J.Obj
                 [
                   ("size", J.Int (MG.size md));
                   ("depth", J.Int (MG.depth md));
                   ("time_s", J.Float t_depth);
                 ] );
           ]))
    Benchmarks.Suite.all;
  Printf.printf "  totals: opt_size %.3fs, opt_depth %.3fs\n%!" !tot_size
    !tot_depth;
  emit
    (J.Obj
       [
         ("section", J.String "hotpath");
         ("name", J.String "summary");
         ("opt_size_total_s", J.Float !tot_size);
         ("opt_depth_total_s", J.Float !tot_depth);
       ])

(* ------------------------------------------------------------------ *)
(* Engine: the fault-tolerant pass pipeline (Flow.Engine).  One clean *)
(* run and one deadline-bounded run on the largest Table-I generator, *)
(* with per-pass outcomes and an independent equivalence check in the *)
(* record.                                                            *)
(* ------------------------------------------------------------------ *)

let print_engine () =
  section "Engine - fault-tolerant pass pipeline (budget/checkpoint/rollback)";
  let run name mode ?timeout_s ~goal ~effort () =
    let net =
      N.flatten_aoig ((Benchmarks.Suite.find name).Benchmarks.Suite.build ())
    in
    let m = Mig.Convert.of_network ~ctx net in
    let (out, rep), t =
      T.time (fun () ->
          Flow.Batch.optimizer_of_spec
            {
              Flow.Batch.default_spec with
              goal;
              effort;
              timeout_s;
              seed = 0xe14;
            }
            m)
    in
    let equivalent = Mig.Equiv.migs ~seed:0x517 m out in
    Printf.printf
      "  %-8s %-9s size %d -> %d, depth %d -> %d, rollbacks %d, %s, %s \
       (%.2fs)\n"
      name mode (Mig.Graph.size m) (Mig.Graph.size out) (Mig.Graph.depth m)
      (Mig.Graph.depth out) rep.Flow.Engine.rollbacks
      (if rep.Flow.Engine.degraded then "degraded" else "clean")
      (if equivalent then "equivalent" else "NOT EQUIVALENT")
      t;
    emit
      (J.Obj
         [
           ("section", J.String "engine");
           ("name", J.String name);
           ("mode", J.String mode);
           ( "timeout_s",
             match timeout_s with Some t -> J.Float t | None -> J.Null );
           ("report", Flow.Engine.report_to_json rep);
           ("rollbacks", J.Int rep.Flow.Engine.rollbacks);
           ("degraded", J.Bool rep.Flow.Engine.degraded);
           ( "result",
             J.Obj
               [
                 ("size", J.Int (Mig.Graph.size out));
                 ("depth", J.Int (Mig.Graph.depth out));
               ] );
           ("equivalent", J.Bool equivalent);
           ("time_s", J.Float t);
         ])
  in
  run "cla" "clean" ~goal:`Size ~effort:2 ();
  (* a deadline tight enough to bite on most hosts: the record's
     per-pass outcomes then include timed_out/skipped entries, and the
     result is the engine's checkpointed best-so-far *)
  run "C6288" "budgeted" ~timeout_s:0.25 ~goal:`Depth ~effort:2 ()

(* ------------------------------------------------------------------ *)
(* Batch: the multi-domain parallel driver (Flow.Batch).  The full    *)
(* Table-I suite is optimized once sequentially and once on a worker  *)
(* pool; the structural results must agree bit for bit (each circuit  *)
(* has its own context, so scheduling cannot leak into the output),   *)
(* and the wall-clock ratio is the recorded speedup.                  *)
(* ------------------------------------------------------------------ *)

let print_batch () =
  section "Batch - multi-domain parallel driver (Flow.Batch)";
  let items =
    List.map
      (fun e ->
        {
          Flow.Batch.name = e.Benchmarks.Suite.name;
          build = e.Benchmarks.Suite.build;
        })
      Benchmarks.Suite.all
  in
  let spec = { Flow.Batch.default_spec with goal = `Depth; effort = 1 } in
  (* fresh quiet ctx per circuit: determinism regardless of worker
     scheduling is the whole point *)
  let make_ctx _ _ = Lsutil.Ctx.create () in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let out = Flow.Batch.run ~jobs ~spec ~make_ctx items in
    (out, Unix.gettimeofday () -. t0)
  in
  let hw = Domain.recommended_domain_count () in
  let jobs_par = max 2 (min 4 hw) in
  (* [Batch.run] caps at the recommended domain count; record what
     actually ran so a 1-core host doesn't claim parallel numbers *)
  let jobs_eff = min jobs_par (max 1 hw) in
  let seq, t_seq = timed 1 in
  let par, t_par = timed jobs_par in
  let structural (o : Flow.Batch.outcome) =
    ( o.Flow.Batch.name,
      o.Flow.Batch.size_in,
      o.Flow.Batch.depth_in,
      o.Flow.Batch.size_out,
      o.Flow.Batch.depth_out,
      o.Flow.Batch.report.Flow.Engine.verified,
      o.Flow.Batch.report.Flow.Engine.degraded,
      List.map
        (fun (p : Flow.Engine.pass_report) ->
          ( p.Flow.Engine.pass,
            Flow.Engine.outcome_name p.Flow.Engine.outcome,
            p.Flow.Engine.size,
            p.Flow.Engine.depth,
            p.Flow.Engine.rolled_back ))
        o.Flow.Batch.report.Flow.Engine.passes )
  in
  let identical =
    List.equal
      (fun a b -> structural a = structural b)
      seq par
  in
  let speedup = if t_par > 0.0 then t_seq /. t_par else 1.0 in
  List.iter (Format.printf "  %a@." Flow.Batch.pp_outcome) par;
  Printf.printf
    "  jobs %d requested, %d effective (%d recommended): %.3fs sequential, \
     %.3fs parallel, speedup %.2fx, results %s\n"
    jobs_par jobs_eff hw t_seq t_par speedup
    (if identical then "bit-identical" else "DIVERGED");
  emit
    (J.Obj
       [
         ("section", J.String "batch");
         ("name", J.String "table1");
         ("jobs", J.Int jobs_par);
         ("jobs_effective", J.Int jobs_eff);
         ("recommended_domains", J.Int hw);
         ("time_seq_s", J.Float t_seq);
         ("time_par_s", J.Float t_par);
         ("speedup", J.Float speedup);
         ("identical", J.Bool identical);
         ( "circuits",
           J.List (List.map Flow.Batch.outcome_to_json par) );
       ])

(* ------------------------------------------------------------------ *)
(* Parmig: region-parallel rewriting inside one graph (Flow.Par).  A  *)
(* multi-million-node stress MIG (built straight into the MIG, no     *)
(* network conversion) is optimized once at jobs=1 and once on a      *)
(* worker pool; the committed graphs must agree bit for bit and the   *)
(* wall-clock ratio is the recorded single-graph speedup.             *)
(* ------------------------------------------------------------------ *)

(* Order-sensitive structural fingerprint: every live majority node's
   raw fanin signals plus the PI/PO lists, folded into one word — two
   graphs with equal fingerprints, sizes and depths are treated as
   bit-identical for the [identical] verdict. *)
let mig_fingerprint g =
  let h = ref 0x9e37 in
  let mixf v = h := ((!h * 1000003) lxor v) land max_int in
  Mig.Graph.iter_live_majs g (fun id fis ->
      mixf id;
      Array.iter (fun s -> mixf (s : Network.Signal.t :> int)) fis);
  List.iter mixf (Mig.Graph.pis g);
  Mig.Graph.iter_pos g (fun n s ->
      mixf (Hashtbl.hash n);
      mixf (s : Network.Signal.t :> int));
  !h

let print_parmig () =
  section "Parmig - region-parallel rewriting in one graph (Flow.Par)";
  let full = Sys.getenv_opt "MIG_BENCH_FULL" = Some "1" in
  let nodes = if full then 2_000_000 else 300_000 in
  (* per-region optimizer cost grows superlinearly with region size
     (65536-node regions cost ~8x more wall clock than 8192-node ones
     for the same total graph), so a smaller target is both faster
     and more parallel at equal QoR *)
  let spec =
    { Flow.Par.default_spec with goal = `Size; effort = 1; target = 8192 }
  in
  let hw = Domain.recommended_domain_count () in
  (* [Par.run] takes the job count literally (that is what the
     differential tests rely on), so the hardware cap is applied here;
     [jobs_effective] additionally reflects the region-count clamp *)
  let jobs_par = max 2 (min 8 hw) in
  let run jobs =
    (* fresh ctx (honouring MIG_CHECK / MIG_SAN) and a fresh
       deterministic build per leg, so telemetry and sanitizer
       ownership never leak from one leg into the other *)
    let ctx = Lsutil.Ctx.default () in
    let g = Benchmarks.Compress.stress ~ctx ~nodes () in
    let t0 = Unix.gettimeofday () in
    let out, oc = Flow.Par.run ~jobs ~spec g in
    let t = Unix.gettimeofday () -. t0 in
    (mig_fingerprint out, out, oc, t)
  in
  Printf.printf "stress MIG: >=%d nodes requested%s\n%!" nodes
    (if full then "" else " (set MIG_BENCH_FULL=1 for the 2M-node run)");
  let fp_seq, out_seq, oc_seq, t_seq = run 1 in
  let fp_par, out_par, oc_par, t_par = run jobs_par in
  let identical =
    fp_seq = fp_par
    && Mig.Graph.size out_seq = Mig.Graph.size out_par
    && Mig.Graph.depth out_seq = Mig.Graph.depth out_par
  in
  let num_regions = List.length oc_par.Flow.Par.regions in
  let jobs_eff = min jobs_par num_regions in
  let fell_back =
    List.length
      (List.filter
         (fun (r : Flow.Par.region_outcome) -> r.Flow.Par.fell_back)
         oc_par.Flow.Par.regions)
  in
  let speedup = if t_par > 0.0 then t_seq /. t_par else 1.0 in
  Printf.printf
    "  size %d -> %d, depth %d -> %d (%d regions of target %d, %d fell \
     back)\n"
    oc_par.Flow.Par.size_in oc_par.Flow.Par.size_out oc_par.Flow.Par.depth_in
    oc_par.Flow.Par.depth_out num_regions oc_par.Flow.Par.region_target
    fell_back;
  Printf.printf
    "  jobs %d requested, %d effective (%d recommended): %.3fs sequential, \
     %.3fs parallel, speedup %.2fx, results %s%s\n"
    jobs_par jobs_eff hw t_seq t_par speedup
    (if identical then "bit-identical" else "DIVERGED")
    (if oc_seq.Flow.Par.equivalent && oc_par.Flow.Par.equivalent then ""
     else " [NOT EQUIVALENT]");
  emit
    (J.Obj
       [
         ("section", J.String "parmig");
         ("name", J.String "stress");
         ("nodes_requested", J.Int nodes);
         ("jobs", J.Int jobs_par);
         ("jobs_effective", J.Int jobs_eff);
         ("recommended_domains", J.Int hw);
         ("time_seq_s", J.Float t_seq);
         ("time_par_s", J.Float t_par);
         ("speedup", J.Float speedup);
         ("identical", J.Bool identical);
         ( "equivalent",
           J.Bool (oc_seq.Flow.Par.equivalent && oc_par.Flow.Par.equivalent)
         );
         ("seq", Flow.Par.outcome_to_json oc_seq);
         ("par", Flow.Par.outcome_to_json oc_par);
       ])

(* ------------------------------------------------------------------ *)
(* Memo: the persistent optimization cache (Lsutil.Memo / Mig.Rwcache *)
(* / Flow.Cutoff).  Cold-vs-warm wall clock over the Table-I suite    *)
(* with bit-identical QoR, plus the dune-style incremental record:    *)
(* complement one output of a previously-seen circuit and re-optimize *)
(* — only that cone goes back through the engine.                     *)
(* ------------------------------------------------------------------ *)

(* [complement_po k net]: a structurally identical copy of [net] with
   output [k]'s signal complemented — the smallest possible edit,
   leaving every other output cone untouched. *)
let complement_po k net =
  let module S = Network.Signal in
  let fresh = N.create () in
  let map = Hashtbl.create (N.num_nodes net) in
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

let print_memo () =
  section "Memo - persistent NPN rewrite cache + early cutoff";
  let items =
    List.map
      (fun e ->
        {
          Flow.Batch.name = e.Benchmarks.Suite.name;
          build = e.Benchmarks.Suite.build;
        })
      Benchmarks.Suite.all
  in
  (* the size script runs [refactor] inside every cycle, so both cache
     layers (NPN rewrite entries and PO-cone cutoff) are exercised *)
  let spec = { Flow.Batch.default_spec with goal = `Size; effort = 2 } in
  let make_ctx _ _ = Lsutil.Ctx.create () in
  let cache = Flow.Cache.in_memory () in
  let timed cache items =
    let t0 = Unix.gettimeofday () in
    let out = Flow.Batch.run ~jobs:1 ~spec ~make_ctx ~cache items in
    (out, Unix.gettimeofday () -. t0)
  in
  let cold, t_cold = timed cache items in
  let warm, t_warm = timed cache items in
  let qor (o : Flow.Batch.outcome) =
    (o.Flow.Batch.name, o.Flow.Batch.size_out, o.Flow.Batch.depth_out)
  in
  let identical = List.equal (fun a b -> qor a = qor b) cold warm in
  let use outs =
    List.fold_left
      (fun (h, m, r, o) (out : Flow.Batch.outcome) ->
        match out.Flow.Batch.cache with
        | Some u ->
            ( h + u.Flow.Batch.rw_hits,
              m + u.Flow.Batch.rw_misses,
              r + u.Flow.Batch.reused_pos,
              o + u.Flow.Batch.reopt_pos )
        | None -> (h, m, r, o))
      (0, 0, 0, 0) outs
  in
  let use_json (h, m, r, o) =
    J.Obj
      [
        ("rw_hits", J.Int h);
        ("rw_misses", J.Int m);
        ("reused_pos", J.Int r);
        ("reopt_pos", J.Int o);
      ]
  in
  let cold_use = use cold and warm_use = use warm in
  let rw_entries, cone_entries = Flow.Cache.sizes cache in
  let speedup = if t_warm > 0.0 then t_cold /. t_warm else 1.0 in
  Printf.printf
    "  cold %.3fs, warm %.3fs (%.1fx), QoR %s; store: %d rewrites, %d cones\n"
    t_cold t_warm speedup
    (if identical then "bit-identical" else "DIVERGED")
    rw_entries cone_entries;
  (* the incremental record: the smallest edit to a seen circuit — one
     complemented output — re-optimized against the warm store, vs the
     same edited circuit from a cold store *)
  let edited_entry = Benchmarks.Suite.find "cla" in
  let edited =
    [
      {
        Flow.Batch.name = "cla~po0";
        build = (fun () -> complement_po 0 (edited_entry.Benchmarks.Suite.build ()));
      };
    ]
  in
  let incr, _ = timed cache edited in
  let full, _ = timed (Flow.Cache.in_memory ()) edited in
  let time_of outs = List.fold_left (fun a (o : Flow.Batch.outcome) -> a +. o.Flow.Batch.time_s) 0.0 outs in
  let t_incr = time_of incr and t_full = time_of full in
  let fraction = if t_full > 0.0 then t_incr /. t_full else 1.0 in
  let incr_identical = List.equal (fun a b -> qor a = qor b) incr full in
  let _, _, incr_reused, incr_reopt = use incr in
  Printf.printf
    "  edit-one-output (cla~po0): %.4fs incremental vs %.4fs full (%.0f%%), \
     %d cones reused / %d re-optimized, QoR %s\n"
    t_incr t_full (100.0 *. fraction) incr_reused incr_reopt
    (if incr_identical then "bit-identical" else "DIVERGED");
  emit
    (J.Obj
       [
         ("section", J.String "memo");
         ("name", J.String "table1");
         ("time_cold_s", J.Float t_cold);
         ("time_warm_s", J.Float t_warm);
         ("speedup", J.Float speedup);
         ("identical", J.Bool identical);
         ("cold", use_json cold_use);
         ("warm", use_json warm_use);
         ("rw_entries", J.Int rw_entries);
         ("cone_entries", J.Int cone_entries);
         ( "incremental",
           J.Obj
             [
               ("name", J.String "cla~po0");
               ("time_full_s", J.Float t_full);
               ("time_incr_s", J.Float t_incr);
               ("fraction", J.Float fraction);
               ("reused_pos", J.Int incr_reused);
               ("reopt_pos", J.Int incr_reopt);
               ("identical", J.Bool incr_identical);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Serve: the optimization daemon (lib/serve) under concurrent load.  *)
(* An in-process daemon on an ephemeral port takes one clean leg (8   *)
(* clients) and one chaos leg (the same load with a raise fault armed *)
(* on every second request); both must answer every request with a    *)
(* validated frame — the chaos leg with degraded-but-verified results *)
(* — and the pooled p50/p99 latencies are the recorded numbers.       *)
(* ------------------------------------------------------------------ *)

let print_serve () =
  section "Serve - optimization daemon under concurrent load (lib/serve)";
  let workers = max 2 (min 4 (Domain.recommended_domain_count () - 1)) in
  let cfg =
    {
      (Serve.Server.default_config (`Tcp ("127.0.0.1", 0))) with
      Serve.Server.workers;
      queue_capacity = 64;
    }
  in
  let t = Serve.Server.launch cfg in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.drain t;
      Serve.Server.join t)
    (fun () ->
      let addr = Serve.Server.bound_addr t in
      let leg name opts =
        let s = Serve.Load.run addr opts in
        Printf.printf
          "  %s: %d sent, %d ok (%d degraded, %d server errors, %d \
           failures), p50 %.1f ms, p99 %.1f ms, wall %.2fs\n"
          name s.Serve.Load.sent s.Serve.Load.ok s.Serve.Load.degraded
          s.Serve.Load.server_errors
          (List.length s.Serve.Load.failures)
          s.Serve.Load.p50_ms s.Serve.Load.p99_ms s.Serve.Load.wall_s;
        emit
          (J.Obj
             [
               ("section", J.String "serve");
               ("name", J.String name);
               ("clients", J.Int opts.Serve.Load.clients);
               ("requests_per_client", J.Int opts.Serve.Load.requests_per_client);
               ("workers", J.Int workers);
               ("queue_capacity", J.Int cfg.Serve.Server.queue_capacity);
               ("served", J.Int (Serve.Server.served t));
               ("rejected", J.Int (Serve.Server.rejected t));
               ("stats", Serve.Load.stats_to_json s);
             ])
      in
      leg "load"
        {
          Serve.Load.default_options with
          Serve.Load.clients = 8;
          requests_per_client = 4;
        };
      leg "chaos"
        {
          Serve.Load.default_options with
          Serve.Load.clients = 8;
          requests_per_client = 4;
          fault_every = Some 2;
          fault_spec = "seed=7:kind=raise:sites=transform";
        })

(* ------------------------------------------------------------------ *)
(* Orchestrate: beam search over the move vocabulary (Flow.           *)
(* Orchestrate) against the fixed effort-2 size script on a Table-I   *)
(* subset.  Both contenders are timed; the search runs under a wall   *)
(* budget derived from the fixed script's own time (floored so CI     *)
(* timing noise can't starve it), and the record carries the          *)
(* size*depth products, who won, and whether search ever regressed.   *)
(* With MIG_TRAJ=PATH every search appends its mighty-traj/1 record   *)
(* there (the CI artifact).                                           *)
(* ------------------------------------------------------------------ *)

let print_orchestrate () =
  section "Orchestrate - beam search vs fixed script (Flow.Orchestrate)";
  let traj = Sys.getenv_opt "MIG_TRAJ" in
  let circuits = [ "b9"; "count"; "cla"; "my_adder"; "misex3" ] in
  let wins = ref 0 and regressions = ref 0 in
  List.iter
    (fun name ->
      let build () =
        Mig.Convert.of_network ~ctx
          (N.flatten_aoig
             ((Benchmarks.Suite.find name).Benchmarks.Suite.build ()))
      in
      let m = build () in
      let fixed, t_fixed =
        T.time (fun () ->
            fst
              (Flow.Batch.optimizer_of_spec
                 { Flow.Batch.default_spec with seed = 0xda14 }
                 m))
      in
      let budget_s = Float.max 0.5 (2. *. t_fixed) in
      let spec =
        {
          Flow.Orchestrate.default_spec with
          Flow.Orchestrate.beam = 2;
          rounds = 4;
          seed = 0xda14;
          timeout_s = Some budget_s;
        }
      in
      (* a fresh copy: the search must not start from the fixed result *)
      let (out, _rep, tr), t_search =
        T.time (fun () ->
            Flow.Orchestrate.run ?traj ~circuit:name ~spec (build ()))
      in
      let product g = Mig.Graph.size g * Mig.Graph.depth g in
      let pf = product fixed and ps = product out in
      let equivalent = Mig.Equiv.migs ~seed:0x517 m out in
      let better = ps < pf and regressed = ps > pf in
      if better then incr wins;
      if regressed then incr regressions;
      Printf.printf
        "  %-9s fixed %dx%d = %d (%.2fs) | search %dx%d = %d (%.2fs, %s, %d \
         moves) %s%s\n"
        name (Mig.Graph.size fixed) (Mig.Graph.depth fixed) pf t_fixed
        (Mig.Graph.size out) (Mig.Graph.depth out) ps t_search
        tr.Flow.Traj.verdict tr.Flow.Traj.explored
        (if better then "WIN" else if regressed then "REGRESSED" else "tie")
        (if equivalent then "" else " NOT EQUIVALENT");
      emit
        (J.Obj
           [
             ("section", J.String "orchestrate");
             ("name", J.String name);
             ( "fixed",
               J.Obj
                 [
                   ("size", J.Int (Mig.Graph.size fixed));
                   ("depth", J.Int (Mig.Graph.depth fixed));
                   ("product", J.Int pf);
                   ("time_s", J.Float t_fixed);
                 ] );
             ( "search",
               J.Obj
                 [
                   ("size", J.Int (Mig.Graph.size out));
                   ("depth", J.Int (Mig.Graph.depth out));
                   ("product", J.Int ps);
                   ("time_s", J.Float t_search);
                   ("verdict", J.String tr.Flow.Traj.verdict);
                   ("explored", J.Int tr.Flow.Traj.explored);
                 ] );
             ("budget_s", J.Float budget_s);
             ("beam", J.Int spec.Flow.Orchestrate.beam);
             ("better", J.Bool better);
             ("regressed", J.Bool regressed);
             ("equivalent", J.Bool equivalent);
           ]))
    circuits;
  let majority = 2 * !wins >= List.length circuits in
  Printf.printf "  wins %d/%d (majority %b), regressions %d\n%!" !wins
    (List.length circuits) majority !regressions;
  emit
    (J.Obj
       [
         ("section", J.String "orchestrate");
         ("name", J.String "summary");
         ("wins", J.Int !wins);
         ("total", J.Int (List.length circuits));
         ("majority", J.Bool majority);
         ("regressions", J.Int !regressions);
       ])

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("table1-top", print_table1_top);
    ("table1-bottom", print_table1_bottom);
    ("fig1", print_fig1);
    ("fig2", print_fig2);
    ("fig3", print_fig3);
    ("fig4", print_fig4);
    ("compress", print_compress);
    ("ablation", print_ablation);
    ("bechamel", print_bechamel);
    ("smoke", print_smoke);
    ("hotpath", print_hotpath);
    ("engine", print_engine);
    ("batch", print_batch);
    ("parmig", print_parmig);
    ("memo", print_memo);
    ("serve", print_serve);
    ("orchestrate", print_orchestrate);
  ]

let write_json path =
  let doc =
    J.Obj
      [
        ("schema", J.String "mighty-bench/1");
        ("generator", J.String "bench/main.exe");
        ("records", J.List (List.rev !json_records));
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d records)\n" path (List.length !json_records)

let () =
  let rec split_json acc = function
    | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
    | "--json" :: [] ->
        prerr_endline "bench: --json requires a PATH argument";
        exit 1
    | x :: rest -> split_json (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_path, args = split_json [] (List.tl (Array.to_list Sys.argv)) in
  (* Span trees inside the records need recording on. *)
  if json_path <> None then T.set_enabled tel true;
  let requested =
    match args with [] -> List.map fst all_sections | args -> args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %s (known: %s)\n" name
            (String.concat ", " (List.map fst all_sections));
          exit 1)
    requested;
  Option.iter write_json json_path
