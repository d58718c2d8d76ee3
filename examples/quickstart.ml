(* Quickstart: build a small function three ways, optimize it as an
   MIG, and verify the result.

   Run with:  dune exec examples/quickstart.exe *)

module N = Network.Graph
module M = Mig.Graph
module S = Network.Signal

let () =
  (* 1. Describe a circuit with the generic network builders:
        a full adder (sum and carry of three inputs). *)
  let net = N.create () in
  let a = N.add_pi net "a" and b = N.add_pi net "b" and cin = N.add_pi net "cin" in
  N.add_po net "sum" (N.xor_ net (N.xor_ net a b) cin);
  N.add_po net "carry" (N.maj net a b cin);
  Format.printf "network: %a@." N.pp_stats net;

  (* 2. Flatten to AND/OR/INV — the paper's input format — and
        transpose into a Majority-Inverter Graph (Theorem 3.1). *)
  let flat = N.flatten_aoig net in
  let mig = Mig.Convert.of_network flat in
  Format.printf "transposed MIG: %a@." M.pp_stats mig;

  (* 3. Optimize for depth (Algorithm 2) and for size (Algorithm 1):
        the goal's script runs through the fault-tolerant pass engine,
        the same optimizer behind `mighty opt`, `batch` and `serve`. *)
  let optimize goal =
    fst (Flow.Batch.optimizer_of_spec { Flow.Batch.default_spec with goal } mig)
  in
  let fast = optimize `Depth in
  let small = optimize `Size in
  Format.printf "depth-optimized: %a@." M.pp_stats fast;
  Format.printf "size-optimized:  %a@." M.pp_stats small;

  (* 4. Every transformation is function-preserving; check it. *)
  assert (Mig.Equiv.to_network_equiv ~seed:42 fast flat);
  assert (Mig.Equiv.to_network_equiv ~seed:43 small flat);
  Format.printf "equivalence: verified@.";

  (* 5. Inspect the result symbolically: the carry output is a single
        majority node, M(a,b,cin). *)
  (match M.pos fast with
  | _ :: ("carry", s) :: _ | ("carry", s) :: _ ->
      Format.printf "carry = %a@." Mig.Algebra.pp (Mig.Algebra.of_signal fast s)
  | _ -> ());

  (* 6. And map it onto the 22nm-style standard-cell library. *)
  let mapped = Tech.Mapper.map_network (Mig.Convert.to_network fast) in
  Format.printf "mapped: %a@." Tech.Mapper.pp_result mapped;
  List.iter
    (fun (cell, n) -> Format.printf "  %-6s x %d@." cell n)
    mapped.Tech.Mapper.cell_counts
