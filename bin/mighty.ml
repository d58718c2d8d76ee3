(* MIGhty — the command-line tool of the paper (§V.A.1): reads a
   flattened combinational circuit (BLIF or structural Verilog),
   optimizes it as an MIG, and writes/reports the result. *)

open Cmdliner

let read_input path =
  try
    if Filename.check_suffix path ".blif" then Logic_io.Blif.read_file path
    else if Filename.check_suffix path ".v" then Logic_io.Verilog.read_file path
    else failwith "mighty: input must be .blif or .v"
  with Logic_io.Io_error.Parse_error { line; msg } ->
    prerr_endline (Logic_io.Io_error.to_string ~filename:path line msg);
    exit 2

let write_output path net =
  if Filename.check_suffix path ".blif" then Logic_io.Blif.write_file path net
  else if Filename.check_suffix path ".v" then
    Logic_io.Verilog.write_file path net
  else failwith "mighty: output must be .blif or .v"

let input_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"INPUT" ~doc:"Input circuit (.blif or .v, flattened).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUTPUT"
        ~doc:"Write the optimized circuit to this file (.blif or .v).")

let effort_arg =
  Arg.(
    value & opt int 2
    & info [ "e"; "effort" ] ~docv:"N"
        ~doc:"Optimization effort (reshape/eliminate cycles).")

let goal_arg =
  let goals = [ ("size", `Size); ("depth", `Depth); ("activity", `Activity) ] in
  Arg.(
    value
    & opt (enum goals) `Depth
    & info [ "g"; "goal" ] ~docv:"GOAL"
        ~doc:"Optimization goal: $(b,size), $(b,depth) or $(b,activity).")

(* The engine-backed subcommands additionally understand [search]:
   orchestrated beam search over optimization moves instead of a fixed
   script (Flow.Orchestrate). *)
let opt_goal_arg =
  let goals =
    [
      ("size", `Size); ("depth", `Depth); ("activity", `Activity);
      ("search", `Search);
    ]
  in
  Arg.(
    value
    & opt (enum goals) `Depth
    & info [ "g"; "goal" ] ~docv:"GOAL"
        ~doc:
          "Optimization goal: $(b,size), $(b,depth), $(b,activity), or \
           $(b,search) (beam search over optimization moves, scored by the \
           size*depth product).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Collect and print per-pass telemetry (wall-clock, nodes/depth in \
           and out, rewrites, strash hits).  Equivalent to setting \
           $(b,MIG_STATS=1).")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"PATH"
        ~doc:
          "Persistent optimization cache (NPN rewrite entries and PO-cone \
           fingerprints), loaded before and saved after the run.  Defaults \
           to $(b,MIG_CACHE); omit both for a cold, cache-less run.")

(* A corrupt store file must not kill the run: the cache is an
   accelerator, so warn and start cold at the same path (the save at
   exit replaces the bad file). *)
let cache_of_cli flag env =
  match (match flag with Some _ as p -> p | None -> env.Lsutil.Env.cache) with
  | None -> None
  | Some path -> (
      match Flow.Cache.load path with
      | Ok c -> Some c
      | Error msg ->
          Printf.eprintf "mighty: cache %s: %s (starting cold)\n%!" path msg;
          Some (Flow.Cache.empty_at path))

let save_cache = function
  | None -> ()
  | Some c -> (
      match Flow.Cache.save c with
      | Ok () ->
          Option.iter
            (fun p ->
              let rw, cones = Flow.Cache.sizes c in
              Format.printf "cache: wrote %s (%d rewrites, %d cones)@." p rw
                cones)
            (Flow.Cache.path c)
      | Error msg -> prerr_endline ("mighty: cache save: " ^ msg))

(* One context per invocation, built from the environment exactly once
   and adjusted by CLI flags; a malformed [MIG_FAULT] is a usage error
   here, not something to drop silently. *)
let env_or_die () =
  match Lsutil.Env.load_result () with
  | Ok e -> e
  | Error msg ->
      prerr_endline ("mighty: MIG_FAULT: " ^ msg);
      exit 2

let ctx_of_cli ?(stats = false) ?(check = false) ?fault () =
  let e = env_or_die () in
  let fault = match fault with Some _ as f -> f | None -> e.Lsutil.Env.fault in
  Lsutil.Ctx.create
    ~stats:(stats || e.Lsutil.Env.stats)
    ~check:(check || e.Lsutil.Env.check)
    ?fault ~seed:e.Lsutil.Env.seed ~san:e.Lsutil.Env.san ()

let parse_fault_arg = function
  | None -> None
  | Some spec -> (
      match Lsutil.Fault.parse spec with
      | Ok sp -> Some sp
      | Error e ->
          prerr_endline ("mighty: --fault: " ^ e);
          exit 2)

let report g label =
  Format.printf "%-10s size = %d, depth = %d, activity = %.2f@." label
    (Mig.Graph.size g) (Mig.Graph.depth g) (Mig.Activity.total g)

(* The optimize subcommand: the paper's scripts run through the
   fault-tolerant engine, budgeted, checkpointed and isolated pass by
   pass, and re-verified against the input.  Exit codes: 0 clean, 2
   usage/input error, 3 degraded (some pass timed out, failed or was
   skipped — the output is still a valid best-so-far circuit). *)
let opt_run input output effort goal stats timeout max_nodes fault json cache
    par_jobs beam traj =
  (* the fault plan targets the optimization run: reject a bad spec up
     front, but arm it only around [Engine.run] so the reader/converter
     and the output writer stay outside the blast radius *)
  let env = env_or_die () in
  let plan =
    match parse_fault_arg fault with
    | Some _ as p -> p
    | None -> env.Lsutil.Env.fault
  in
  (* the ctx starts with no fault armed, so the reader/converter and
     the output writer stay outside the blast radius *)
  let ctx =
    Lsutil.Ctx.create
      ~stats:(stats || env.Lsutil.Env.stats)
      ~check:env.Lsutil.Env.check ~seed:env.Lsutil.Env.seed
      ~san:env.Lsutil.Env.san ()
  in
  let flt = Lsutil.Ctx.fault ctx in
  (* SIGTERM/SIGINT turn into a sticky budget interrupt: the engine
     finishes by degrading to its best verified checkpoint, the cache
     delta is still saved, and the exit code says "interrupted" (4).
     The handler only flips flags — async-signal-safe. *)
  let interrupted = ref false in
  let stop_handler =
    Sys.Signal_handle
      (fun _ ->
        interrupted := true;
        Lsutil.Budget.interrupt (Lsutil.Ctx.budget ctx))
  in
  Sys.set_signal Sys.sigterm stop_handler;
  Sys.set_signal Sys.sigint stop_handler;
  (* region-parallel rewriting: --par-jobs beats MIG_PAR_JOBS; both are
     capped by the hardware domain count (Flow.Par takes the value
     literally so tests can oversubscribe deliberately) *)
  let par_jobs =
    match (par_jobs, env.Lsutil.Env.par_jobs) with
    | Some n, _ | None, Some n ->
        Some (min n (max 1 (Domain.recommended_domain_count ())))
    | None, None -> None
  in
  let par_goal =
    match (par_jobs, goal) with
    | None, _ -> None
    | Some j, ((`Size | `Depth) as pg) -> Some (j, pg)
    | Some _, `Activity ->
        prerr_endline
          "mighty: --par-jobs supports the size and depth goals only";
        exit 2
    | Some _, `Search ->
        prerr_endline "mighty: --par-jobs is not supported with --goal search";
        exit 2
  in
  (match (par_goal, cache) with
  | Some _, Some _ ->
      prerr_endline "mighty: --par-jobs and --cache are mutually exclusive";
      exit 2
  | _ -> ());
  let store = cache_of_cli cache env in
  let net = read_input input in
  Format.printf "read %s: %a@." input Network.Graph.pp_stats net;
  let m = Mig.Convert.of_network ~ctx (Network.Graph.flatten_aoig net) in
  report m "initial";
  let t0 = Unix.gettimeofday () in
  let opt, rep =
    (match plan with Some sp -> Lsutil.Fault.arm flt sp | None -> ());
    Fun.protect
      ~finally:(fun () -> Lsutil.Fault.disarm flt)
      (fun () ->
        match goal with
        | `Search ->
            (* orchestrated beam search over the move vocabulary: the
               spec's rounds scale with --effort, and --cache feeds its
               rewrite store to the refactoring moves (no cone cutoff —
               the move sequence isn't known up front) *)
            let rwh =
              Option.map (fun c -> Mig.Rwcache.fork (Flow.Cache.rw c)) store
            in
            let spec =
              {
                Flow.Orchestrate.goal = `Size;
                beam;
                rounds = 2 * effort;
                seed = 0xda14;
                timeout_s = timeout;
                max_nodes;
              }
            in
            let out, rep, tr =
              Flow.Orchestrate.run ?cache:rwh ?traj
                ~circuit:(Filename.basename input) ~spec m
            in
            Format.printf "search: explored %d moves, verdict %s@."
              tr.Flow.Traj.explored tr.Flow.Traj.verdict;
            (match (store, rwh) with
            | Some c, Some h ->
                Flow.Cache.absorb_rw c [ Mig.Rwcache.delta h ];
                Format.printf "cache: rewrites %d hit / %d miss@."
                  (Mig.Rwcache.hits h) (Mig.Rwcache.misses h)
            | _ -> ());
            (out, rep)
        | (`Size | `Depth | `Activity) as goal -> (
            let spec =
              {
                Flow.Batch.goal;
                effort;
                timeout_s = timeout;
                max_nodes;
                verify = None;
                seed = 0xda14;
              }
            in
            match (store, par_goal) with
            | None, None -> Flow.Batch.optimizer_of_spec spec m
            | None, Some (jobs, pg) ->
                Flow.Engine.run ?timeout_s:timeout ?max_nodes
                  ~cost:(Flow.Engine.cost_of_goal goal)
                  ~seed:spec.seed
                  ~passes:
                    (Flow.Par.passes ~jobs
                       ~spec:{ Flow.Par.default_spec with goal = pg; effort }
                       ())
                  m
            | Some c, _ ->
            (* cache-accelerated: the rewrite handle feeds the engine's
               refactoring passes, and the cone store lets unchanged
               outputs skip optimization entirely (dune-style cutoff) *)
            let rwh = Mig.Rwcache.fork (Flow.Cache.rw c) in
            let salt = Flow.Batch.salt_of_spec spec in
            let optimize = Flow.Batch.optimizer_of_spec ~cache:rwh spec in
            let r =
              Flow.Cutoff.run ~salt ~store:(Flow.Cache.cones c) ~optimize
                ~seed:0xda14 m
            in
            Flow.Cache.absorb_rw c [ Mig.Rwcache.delta rwh ];
            Flow.Cache.absorb_cones c [ r.Flow.Cutoff.delta ];
            Format.printf
              "cache: rewrites %d hit / %d miss, cones %d reused / %d \
               re-optimized%s@."
              (Mig.Rwcache.hits rwh) (Mig.Rwcache.misses rwh)
              r.Flow.Cutoff.reused r.Flow.Cutoff.reoptimized
              (if r.Flow.Cutoff.fallback then " [fallback]" else "");
            (r.Flow.Cutoff.graph, r.Flow.Cutoff.report)))
  in
  report opt "optimized";
  Format.printf "time: %.2fs@." (Unix.gettimeofday () -. t0);
  Format.printf "%a@." Flow.Engine.pp_report rep;
  save_cache store;
  (* a partial (interrupted) report is still a complete, schema-stable
     JSON document — it just says so *)
  let report_json () =
    match Flow.Engine.report_to_json rep with
    | Lsutil.Json.Obj fields when !interrupted ->
        Lsutil.Json.Obj (("interrupted", Lsutil.Json.Bool true) :: fields)
    | j -> j
  in
  (match json with
  | Some "-" -> Format.printf "%a@." Lsutil.Json.pp (report_json ())
  | Some path ->
      let oc = open_out path in
      output_string oc (Lsutil.Json.to_string (report_json ()));
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %s@." path
  | None -> ());
  (match output with
  | Some path ->
      write_output path (Mig.Convert.to_network opt);
      Format.printf "wrote %s@." path
  | None -> ());
  if !interrupted then begin
    Format.printf "interrupted: returning best-so-far result@.";
    exit 4
  end;
  if rep.Flow.Engine.degraded then exit 3

let opt_cmd =
  let doc =
    "optimize under a resource budget with checkpoint/rollback (the \
     fault-tolerant pass engine)"
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:
            "Wall-clock budget in seconds.  When it expires mid-pass the \
             engine rolls back to the last verified checkpoint and returns \
             the best result so far (exit code 3).")
  in
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Node-allocation budget shared by every arena (MIG, AIG, BDD) \
             used while optimizing.")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic fault injection, e.g. \
             $(b,seed=7:rate=0.05:kind=any:sites=transform,strash).  \
             Defaults to the $(b,MIG_FAULT) environment variable; see \
             DESIGN.md \xc2\xa712 for the grammar.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the engine report (per-pass outcomes, rollbacks, \
             verification) as JSON to $(docv), or to stdout for $(b,-).")
  in
  let par_jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "par-jobs" ] ~docv:"N"
          ~doc:
            "Optimize fanout-closed regions of the graph on $(docv) worker \
             domains (region-parallel rewriting; size/depth goals only, \
             mutually exclusive with $(b,--cache)).  The result is \
             bit-identical at any job count.  Defaults to the \
             $(b,MIG_PAR_JOBS) environment variable; capped by the \
             hardware domain count.")
  in
  let beam =
    Arg.(
      value & opt int 2
      & info [ "beam" ] ~docv:"K"
          ~doc:
            "Beam width for $(b,--goal search): how many best-scoring \
             candidates survive each search round ($(b,1) = greedy).")
  in
  let traj =
    Arg.(
      value
      & opt (some string) None
      & info [ "traj" ] ~docv:"PATH"
          ~doc:
            "Append the search trajectory (one $(b,mighty-traj/1) JSON \
             record per run, NDJSON) to $(docv).  Only meaningful with \
             $(b,--goal search).")
  in
  Cmd.v
    (Cmd.info "opt" ~doc)
    Term.(
      const opt_run $ input_arg $ output_arg $ effort_arg $ opt_goal_arg
      $ stats_arg $ timeout $ max_nodes $ fault $ json $ cache_arg
      $ par_jobs $ beam $ traj)

let map_cmd =
  let doc = "optimize and map onto the 22nm-style cell library" in
  let run input effort no_maj =
    let ctx = ctx_of_cli () in
    let m, _ = Flow.mig_opt ~effort ctx (read_input input) in
    report m "optimized";
    let lib = if no_maj then Tech.Cells.no_majority else Tech.Cells.full in
    let r = Tech.Mapper.map_network ~ctx ~lib (Mig.Convert.to_network m) in
    Format.printf "%a@." Tech.Mapper.pp_result r;
    List.iter
      (fun (cell, count) -> Format.printf "  %-6s x %d@." cell count)
      r.Tech.Mapper.cell_counts
  in
  let no_maj =
    Arg.(
      value & flag
      & info [ "no-majority-cells" ]
          ~doc:"Map without the MAJ-3/MIN-3 cells (ablation).")
  in
  Cmd.v (Cmd.info "map" ~doc)
    Term.(const run $ input_arg $ effort_arg $ no_maj)

let stats_cmd =
  let doc = "print size/depth/activity of a circuit" in
  let run input =
    let net = read_input input in
    Format.printf "%a, depth = %d, activity = %.2f@." Network.Graph.pp_stats
      net
      (Network.Metrics.depth net)
      (Network.Metrics.activity net)
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ input_arg)

let bench_cmd =
  let doc = "emit a named benchmark circuit from the built-in suite" in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "One of: %s, compress"
               (String.concat ", " Benchmarks.Suite.names)))
  in
  let out_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUTPUT" ~doc:"Output file (.blif or .v).")
  in
  let run name out =
    let net =
      if name = "compress" then Benchmarks.Suite.compression ()
      else (Benchmarks.Suite.find name).Benchmarks.Suite.build ()
    in
    write_output out net;
    Format.printf "wrote %s: %a@." out Network.Graph.pp_stats net
  in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const run $ name_arg $ out_arg)

(* Multi-domain batch driver over the built-in suite (or named subset):
   one worker domain per job, one private execution context per
   circuit, results merged in input order.  Exit codes as [opt]: 0
   clean, 3 if any circuit degraded. *)
let batch_run names jobs goal effort timeout max_nodes fault stats check json
    cache =
  let env = env_or_die () in
  let plan =
    match parse_fault_arg fault with
    | Some _ as p -> p
    | None -> env.Lsutil.Env.fault
  in
  let items =
    let pick =
      match names with
      | [] -> Benchmarks.Suite.all
      | names ->
          List.map
            (fun n ->
              try Benchmarks.Suite.find n
              with Not_found ->
                prerr_endline ("mighty batch: unknown circuit " ^ n);
                exit 2)
            names
    in
    List.map
      (fun e ->
        {
          Flow.Batch.name = e.Benchmarks.Suite.name;
          build = e.Benchmarks.Suite.build;
        })
      pick
  in
  let spec =
    {
      Flow.Batch.goal;
      effort;
      timeout_s = timeout;
      max_nodes;
      verify = None;
      seed = env.Lsutil.Env.seed;
    }
  in
  let make_ctx _ _ =
    Lsutil.Ctx.create
      ~stats:(stats || env.Lsutil.Env.stats)
      ~check:(check || env.Lsutil.Env.check)
      ?fault:plan ~seed:env.Lsutil.Env.seed ~san:env.Lsutil.Env.san ()
  in
  let store = cache_of_cli cache env in
  (* SIGTERM/SIGINT stop workers from claiming new circuits;
     in-flight ones finish, so every reported outcome is whole and
     verified.  Cache deltas of completed items are saved, the JSON
     report is emitted with an "interrupted" marker, exit code 4. *)
  let stop = Atomic.make false in
  let stop_handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigterm stop_handler;
  Sys.set_signal Sys.sigint stop_handler;
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Flow.Batch.run ~jobs ~spec ~make_ctx ?cache:store ~stop items
  in
  let dt = Unix.gettimeofday () -. t0 in
  let interrupted = Atomic.get stop in
  List.iter (Format.printf "%a@." Flow.Batch.pp_outcome) outcomes;
  Format.printf "batch: %d circuit(s), %d job(s), %.3fs%s@."
    (List.length outcomes) jobs dt
    (if interrupted then
       Printf.sprintf "  [interrupted: %d of %d done]" (List.length outcomes)
         (List.length items)
     else "");
  (match store with
  | Some _ ->
      let h, m, reused, reopt =
        List.fold_left
          (fun (h, m, r, o) out ->
            match out.Flow.Batch.cache with
            | Some u ->
                ( h + u.Flow.Batch.rw_hits,
                  m + u.Flow.Batch.rw_misses,
                  r + u.Flow.Batch.reused_pos,
                  o + u.Flow.Batch.reopt_pos )
            | None -> (h, m, r, o))
          (0, 0, 0, 0) outcomes
      in
      Format.printf
        "cache: rewrites %d hit / %d miss, cones %d reused / %d re-optimized@."
        h m reused reopt
  | None -> ());
  save_cache store;
  (match json with
  | Some "-" ->
      Format.printf "%a@." Lsutil.Json.pp
        (Flow.Batch.to_json ~interrupted ~jobs outcomes)
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Lsutil.Json.to_string (Flow.Batch.to_json ~interrupted ~jobs outcomes));
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %s@." path
  | None -> ());
  if interrupted then exit 4;
  if List.exists (fun o -> o.Flow.Batch.report.Flow.Engine.degraded) outcomes
  then exit 3

let batch_cmd =
  let doc =
    "optimize many circuits concurrently (one engine pipeline per worker \
     domain, one private context per circuit)"
  in
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Circuits from the built-in suite (default: all of %s)."
               (String.concat ", " Benchmarks.Suite.names)))
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (clamped to the circuit count and the hardware \
             parallelism).  Results are bit-identical for any value.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:"Per-circuit wall-clock budget in seconds.")
  in
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Per-circuit node-allocation budget.")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic fault injection in every circuit's private \
             context (same grammar as $(b,mighty opt --fault)).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run every pipeline under the transform guard (equivalent to \
             $(b,MIG_CHECK=1)).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write per-circuit outcomes (sizes, depths, engine reports, \
             telemetry when $(b,--stats)) as JSON to $(docv), or stdout for \
             $(b,-).")
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const batch_run $ names_arg $ jobs $ goal_arg $ effort_arg $ timeout
      $ max_nodes $ fault $ stats_arg $ check $ json $ cache_arg)

let check_cmd =
  let doc =
    "lint a circuit against the structural invariants (MIG/AIG/NET rules)"
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list-rules" ] ~doc:"Print the rule catalog and exit.")
  in
  let guard =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:
            "Also run a guarded depth optimization on the MIG: pre/post \
             lint plus a simulation miter with counterexample reporting.")
  in
  let input =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"INPUT" ~doc:"Input circuit (.blif or .v, flattened).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the findings as a mighty-check/1 JSON document to \
             $(docv), or stdout for $(b,-).")
  in
  let run list_rules guard json input =
    if list_rules then begin
      Format.printf "%a@." Check.Rules.pp_catalog ();
      exit 0
    end;
    match input with
    | None ->
        prerr_endline "mighty check: INPUT argument required";
        exit 2
    | Some path ->
        let net =
          try read_input path
          with e ->
            Format.eprintf "mighty check: cannot read %s: %s@." path
              (Printexc.to_string e);
            exit 2
        in
        let ctx = ctx_of_cli () in
        let m = Mig.Convert.of_network ~ctx net in
        let a = Aig.Convert.of_network ~ctx net in
        let reports =
          [
            Network.Check.lint ~subject:"network" net;
            Mig.Check.lint ~subject:"mig" m;
            Aig.Check.lint ~subject:"aig" a;
            (* runtime-sanitizer findings (empty unless MIG_SAN=1 saw a
               violation while building the graphs above) *)
            Check.San.report (Lsutil.Ctx.san ctx);
          ]
        in
        (match json with
        | Some "-" ->
            Format.printf "%a@." Lsutil.Json.pp
              (Check.Report.reports_to_json reports)
        | Some out ->
            let oc = open_out out in
            output_string oc
              (Lsutil.Json.to_string (Check.Report.reports_to_json reports));
            output_char oc '\n';
            close_out oc
        | None ->
            List.iter
              (fun r -> Format.printf "%a@." Check.Report.pp r)
              reports);
        (if guard then
           (* the engine replaces a discarded pass by its checkpoint,
              which the miter cannot tell from the pass's own work, so
              the guard also fails on any rollback *)
           let report = ref None in
           let optimize m =
             let out, r =
               Flow.Batch.optimizer_of_spec
                 { Flow.Batch.default_spec with goal = `Depth }
                 m
             in
             report := Some r;
             out
           in
           match
             Mig.Check.guarded ~enabled:true ~name:"depth" optimize
               (Mig.Convert.of_network ~ctx (Network.Graph.flatten_aoig net))
           with
           | _ -> (
               match !report with
               | Some ({ Flow.Engine.degraded = true; _ } as r) ->
                   Format.printf "%a@.guard: depth FAIL (engine rolled back)@."
                     Flow.Engine.pp_report r;
                   exit 1
               | _ -> Format.printf "guard: depth PASS@.")
           | exception Check.Guard.Failed f ->
               Format.printf "%a@." Check.Guard.pp_failure f;
               exit 1);
        let nerr =
          List.fold_left
            (fun acc r -> acc + List.length (Check.Report.errors r))
            0 reports
        in
        if nerr > 0 then begin
          if json = None then Format.printf "%d error(s)@." nerr;
          exit 1
        end
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ list_rules $ guard $ json $ input)

let equiv_cmd =
  let doc = "check two circuits for functional equivalence" in
  let a_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A" ~doc:"First circuit.")
  in
  let b_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B" ~doc:"Second circuit.")
  in
  let run a b =
    let na = read_input a and nb = read_input b in
    let ok = Network.Simulate.equivalent ~seed:0xe9 na nb in
    Format.printf "%s@." (if ok then "EQUIVALENT" else "NOT EQUIVALENT");
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "equiv" ~doc) Term.(const run $ a_arg $ b_arg)

(* ----- the optimization daemon and its clients ----- *)

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:
          "TCP port (server: 0 picks an ephemeral port).  Defaults to \
           $(b,MIG_SERVE_PORT).")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST"
        ~doc:"Address to bind / connect to (default 127.0.0.1).")

let unix_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix-socket" ] ~docv:"PATH"
        ~doc:"Use a Unix-domain socket instead of TCP.")

let resolve_addr env port host unix_socket =
  match (unix_socket, port, env.Lsutil.Env.serve_port) with
  | Some path, _, _ -> `Unix path
  | None, Some p, _ | None, None, Some p -> `Tcp (host, p)
  | None, None, None ->
      prerr_endline "mighty: need --port, --unix-socket or MIG_SERVE_PORT";
      exit 2

let serve_run port host unix_socket queue workers timeout cache check =
  let env = env_or_die () in
  let addr = resolve_addr env port host unix_socket in
  let store = cache_of_cli cache env in
  let dc = Serve.Server.default_config ~env addr in
  let cfg =
    {
      dc with
      Serve.Server.queue_capacity =
        (match queue with
        | Some q -> q
        | None -> dc.Serve.Server.queue_capacity);
      workers =
        (match workers with Some w -> w | None -> dc.Serve.Server.workers);
      default_timeout_s =
        (match timeout with
        | Some _ as t -> t
        | None -> dc.Serve.Server.default_timeout_s);
      cache = store;
      check = check || dc.Serve.Server.check;
    }
  in
  (match addr with
  | `Tcp (h, p) ->
      Format.printf "serve: listening on %s:%d (%d workers, queue %d)@." h p
        cfg.Serve.Server.workers cfg.Serve.Server.queue_capacity
  | `Unix p ->
      Format.printf "serve: listening on %s (%d workers, queue %d)@." p
        cfg.Serve.Server.workers cfg.Serve.Server.queue_capacity);
  (* blocks until SIGTERM/SIGINT completes the graceful drain:
     accepting stops, in-flight requests finish, the cache delta is
     flushed, and we fall through to a clean exit 0 *)
  Serve.Server.run cfg;
  Format.printf "serve: drained, exiting@."

let serve_cmd =
  let doc =
    "run the long-lived optimization daemon (newline-delimited JSON over \
     TCP or a Unix socket; graceful SIGTERM/SIGINT drain)"
  in
  let queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-queue capacity; a full queue rejects new connections \
             with a structured $(i,overloaded) error carrying \
             retry_after_ms.  Defaults to $(b,MIG_SERVE_QUEUE) or 64.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains (default: hardware parallelism minus one; 0 is \
             a test hook that admits but never serves).")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:
            "Per-request deadline cap in seconds (default 30); requests \
             asking for more are clamped, requests that hit it degrade to \
             their best verified checkpoint.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run every request under the transform guard (equivalent to \
             $(b,MIG_CHECK=1)).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve_run $ port_arg $ host_arg $ unix_socket_arg $ queue
      $ workers $ timeout $ cache_arg $ check)

let ping_run port host unix_socket =
  let env = env_or_die () in
  let addr = resolve_addr env port host unix_socket in
  match Serve.Client.connect addr with
  | Error e ->
      prerr_endline ("mighty ping: " ^ e);
      exit 1
  | Ok conn -> (
      let r = Serve.Client.ping conn in
      Serve.Client.close conn;
      match r with
      | Ok body -> Format.printf "%a@." Lsutil.Json.pp body
      | Error e ->
          prerr_endline ("mighty ping: " ^ e);
          exit 1)

let ping_cmd =
  let doc = "ping a running daemon and print its status record" in
  Cmd.v (Cmd.info "ping" ~doc)
    Term.(const ping_run $ port_arg $ host_arg $ unix_socket_arg)

let serve_load_run port host unix_socket clients requests names goal effort
    timeout fault_every fault json =
  let open Serve.Load in
  let env = env_or_die () in
  let addr = resolve_addr env port host unix_socket in
  let circuits =
    match names with
    | [] -> default_options.circuits
    | ns ->
        List.map
          (fun n ->
            if List.mem n Benchmarks.Suite.names then Serve.Protocol.Bench n
            else begin
              prerr_endline ("mighty serve-load: unknown circuit " ^ n);
              exit 2
            end)
          ns
  in
  let opts =
    {
      clients;
      requests_per_client = requests;
      circuits;
      goal;
      effort;
      timeout_s = timeout;
      fault_every;
      fault_spec =
        (match fault with Some s -> s | None -> default_options.fault_spec);
      seed = env.Lsutil.Env.seed;
    }
  in
  let stats = run addr opts in
  Format.printf
    "serve-load: %d sent, %d ok (%d degraded), %d server errors, %d \
     failures@."
    stats.sent stats.ok stats.degraded stats.server_errors
    (List.length stats.failures);
  List.iter (Format.printf "  failure: %s@.") stats.failures;
  Format.printf "latency: p50 %.1f ms, p99 %.1f ms, max %.1f ms (%.2fs wall)@."
    stats.p50_ms stats.p99_ms stats.max_ms stats.wall_s;
  (match json with
  | Some "-" -> Format.printf "%a@." Lsutil.Json.pp (stats_to_json stats)
  | Some path ->
      let oc = open_out path in
      output_string oc (Lsutil.Json.to_string (stats_to_json stats));
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %s@." path
  | None -> ());
  (* transport/validation failures are CI-fatal; pure rejection storms
     (ok = 0) are too, so a misconfigured run can't pass silently *)
  if stats.failures <> [] || (stats.sent > 0 && stats.ok = 0) then exit 1

let serve_load_cmd =
  let doc =
    "drive a running daemon with concurrent clients and report p50/p99 \
     latency (the CI smoke/chaos load)"
  in
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client domains.")
  in
  let requests =
    Arg.(
      value & opt int 4
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:"Suite circuits to request round-robin (default b9, count, \
                cla).")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) (Some 20.)
      & info [ "timeout" ] ~docv:"SEC" ~doc:"Per-request budget sent along.")
  in
  let fault_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-every" ] ~docv:"N"
          ~doc:
            "Chaos mode: every $(docv)-th request of each client carries \
             the --fault spec, so faults fire in-flight while healthy \
             requests keep streaming.")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:"Fault spec for --fault-every requests.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write the load statistics as JSON to $(docv) ($(b,-): stdout).")
  in
  Cmd.v (Cmd.info "serve-load" ~doc)
    Term.(
      const serve_load_run $ port_arg $ host_arg $ unix_socket_arg $ clients
      $ requests $ names_arg $ opt_goal_arg $ effort_arg $ timeout
      $ fault_every $ fault $ json)

let () =
  let doc = "MIG-based logic optimization (Amaru et al., DAC'14)" in
  let info = Cmd.info "mighty" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            opt_cmd; batch_cmd; map_cmd; stats_cmd; bench_cmd;
            check_cmd; equiv_cmd; serve_cmd; ping_cmd; serve_load_cmd;
          ]))
