(* Shared generators and utilities for the test-suite. *)

module N = Network.Graph
module S = Network.Signal

let check_tt = Alcotest.testable Truthtable.pp Truthtable.equal

(* ----- random truth tables ----- *)

let gen_tt nvars =
  QCheck2.Gen.(
    map
      (fun bits -> Truthtable.of_bits nvars (fun m -> List.nth bits m))
      (list_repeat (1 lsl nvars) bool))

(* ----- random algebra terms ----- *)

let gen_term ~vars ~depth =
  let open QCheck2.Gen in
  let var = map (fun i -> Mig.Algebra.Var (List.nth vars i)) (int_bound (List.length vars - 1)) in
  fix
    (fun self d ->
      if d = 0 then
        oneof [ var; map (fun b -> Mig.Algebra.Const b) bool ]
      else
        frequency
          [
            (2, var);
            (1, map (fun t -> Mig.Algebra.Not t) (self (d - 1)));
            ( 4,
              map3
                (fun a b c -> Mig.Algebra.Maj (a, b, c))
                (self (d - 1)) (self (d - 1)) (self (d - 1)) );
          ])
    depth

(* ----- random networks ----- *)

(* A deterministic random network over [inputs] PIs. *)
let random_network ~seed ~inputs ~gates ~outputs =
  Benchmarks.Control.random_logic ~seed ~inputs ~outputs ~gates ()

(* Build a network from a generated term list: one PO per term. *)
let network_of_terms ~vars terms =
  let net = N.create () in
  let pis = List.map (fun v -> (v, N.add_pi net v)) vars in
  let rec build t =
    match t with
    | Mig.Algebra.Const false -> N.const0 net
    | Mig.Algebra.Const true -> N.const1 net
    | Mig.Algebra.Var v -> List.assoc v pis
    | Mig.Algebra.Not t -> S.not_ (build t)
    | Mig.Algebra.Maj (a, b, c) -> N.maj net (build a) (build b) (build c)
  in
  List.iteri (fun i t -> N.add_po net (Printf.sprintf "y%d" i) (build t)) terms;
  net

(* Equivalence of a network against a reference boolean function list *)
let net_matches_fn net fn =
  (* fn : (string -> bool) -> (string * bool) list *)
  let rng = Lsutil.Rng.create 0x7357 in
  let ok = ref true in
  for _ = 1 to 200 do
    if !ok then begin
      let tbl = Hashtbl.create 16 in
      let env name =
        match Hashtbl.find_opt tbl name with
        | Some v -> v
        | None ->
            let v = Lsutil.Rng.bool rng in
            Hashtbl.add tbl name v;
            v
      in
      let expect = fn env in
      let stim name = if env name then -1L else 0L in
      let got = Network.Simulate.run net stim in
      List.iter
        (fun (name, v) ->
          match List.assoc_opt name got with
          | Some bits -> if Int64.logand bits 1L <> 0L <> v then ok := false
          | None -> ok := false)
        expect
    end
  done;
  !ok

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* ----- the optimizer every entry point runs ----- *)

(* The goal's paper script through the pass engine, at [effort]
   (default 2): exactly what [Flow.mig_opt], [mighty opt], [batch] and
   [serve] build via [Flow.Batch.optimizer_of_spec].  The engine never
   returns a wrong graph: it rolls an unsound pass back, or falls back
   to the input, and reports either as [degraded].  So a degraded run
   fails the test here, or a miscompile could never show. *)
let opt ?(effort = 2) ?cache goal m =
  let out, r =
    Flow.Batch.optimizer_of_spec ?cache
      { Flow.Batch.default_spec with goal; effort }
      m
  in
  if r.Flow.Engine.degraded then
    Alcotest.failf "optimizer (effort %d) did not run clean:@,%a" effort
      Flow.Engine.pp_report r;
  out
