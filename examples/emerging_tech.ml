(* Majority-native technologies (the paper's §I motivation): in
   several beyond-CMOS technologies — QCA, spin-wave devices,
   resonant-tunneling diodes — the majority gate is the *primitive*,
   so an MIG is the natural intermediate form.

   This example optimizes datapath circuits and reports how much of
   the mapped netlist lands in native majority cells, with and without
   MAJ-3/MIN-3 in the library (the DESIGN.md §6 mapping ablation). *)

let cell_fraction result names =
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0
      result.Tech.Mapper.cell_counts
  in
  let matching =
    List.fold_left
      (fun acc (cell, n) -> if List.mem cell names then acc + n else acc)
      0 result.Tech.Mapper.cell_counts
  in
  100.0 *. float_of_int matching /. float_of_int (max 1 total)

let () =
  Format.printf
    "Majority-native mapping (MAJ-3/MIN-3 as first-class cells):@.@.";
  Format.printf "%-22s %9s %9s %11s %11s@." "circuit" "delay(ns)"
    "delay(ns)" "MAJ cells" "area ratio";
  Format.printf "%-22s %9s %9s %11s %11s@." "" "full lib" "no MAJ" "(full)" "(no/full)";
  List.iter
    (fun (name, net) ->
      let sub =
        Mig.Convert.to_network (fst (Flow.mig_opt (Lsutil.Ctx.create ()) net))
      in
      let full, ok1 = Tech.Mapper.map_and_verify ~seed:1 sub in
      let nomaj, ok2 =
        Tech.Mapper.map_and_verify ~lib:Tech.Cells.no_majority ~seed:2 sub
      in
      assert (ok1 && ok2);
      Format.printf "%-22s %9.3f %9.3f %10.1f%% %11.2f@." name
        full.Tech.Mapper.delay nomaj.Tech.Mapper.delay
        (cell_fraction full [ "MAJ3"; "MIN3" ])
        (nomaj.Tech.Mapper.area /. full.Tech.Mapper.area))
    [
      ("16-bit adder", Benchmarks.Arith.ripple_adder 16);
      ("8x8 multiplier", Benchmarks.Arith.array_multiplier 8);
      ("16-bit counter", Benchmarks.Arith.counter_next 16);
      ("32-bit CLA", Benchmarks.Arith.cla_adder 32);
    ];
  Format.printf
    "@.Without native majority cells every M(a,b,c) costs several\n\
     NAND/NOR/INV cells; with them the MIG structure maps one-to-one —\n\
     the reason the paper argues MIGs are the natural synthesis target\n\
     for majority-based nanotechnologies.@."
