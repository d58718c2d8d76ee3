(* One goal gives one answer on every optimize entry point.

   The paper's Alg. 1/2 scripts are defined once ([Flow.Move], run by
   [Flow.Batch.optimizer_of_spec]); this suite pins that every way in
   returns the same graph for the same circuit, goal and effort:

   - [Flow.mig_opt] (the Table-I flow; depth goal only),
   - [Flow.Batch.run] (its outcome carries the engine report, not the
     graph, so it is compared by size, depth and per-pass trajectory),
   - the CLI, [mighty opt -o x.blif --json r.json],
   - a live [Serve] daemon answering a request with [emit: blif].

   Graphs are compared as the BLIF text the CLI and the daemon emit, so
   "identical" means node for node, not merely equal metrics.  Every
   entry point reads the same BLIF file, so all of them start from the
   same subject graph. *)

module J = Lsutil.Json
module P = Serve.Protocol

let mighty = Filename.concat Filename.parent_dir_name "bin/mighty.exe"
let circuits = [ "b9"; "count"; "my_adder" ]

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* run the CLI with stdout captured; fails the test on a non-zero exit *)
let cli args =
  let out = Filename.temp_file "mighty_entry" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (Filename.quote_command mighty ~stdout:out args) in
      let text = read_all out in
      if code <> 0 then
        Alcotest.failf "mighty %s exited %d:\n%s" (String.concat " " args)
          code text;
      text)

let with_temp suffix f =
  let path = Filename.temp_file "mighty_entry" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let blif_of_mig g =
  Format.asprintf "%a"
    (fun fmt n -> Logic_io.Blif.write fmt n)
    (Mig.Convert.to_network g)

(* an engine report with its wall-clock fields dropped: what is left
   (pass names, outcomes, sizes, depths, rollbacks, verification) is
   deterministic *)
let rec untimed = function
  | J.Obj fields ->
      J.Obj
        (List.filter_map
           (fun (k, v) -> if k = "time_s" then None else Some (k, untimed v))
           fields)
  | J.List l -> J.List (List.map untimed l)
  | j -> j

let check_json msg a b =
  Alcotest.(check string)
    msg
    (J.to_string (untimed a))
    (J.to_string (untimed b))

let with_server f =
  let cfg =
    {
      (Serve.Server.default_config (`Tcp ("127.0.0.1", 0))) with
      Serve.Server.workers = 1;
      default_timeout_s = None;
    }
  in
  let t = Serve.Server.launch cfg in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.drain t;
      Serve.Server.join t)
    (fun () ->
      match Serve.Client.connect (Serve.Server.bound_addr t) with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
          Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c))

let entry_points_agree client ~blif_path ~circuit ~goal ~effort =
  let label =
    Printf.sprintf "%s %s e%d" circuit (Flow.Move.goal_name goal) effort
  in
  (* CLI *)
  let cli_blif, cli_report =
    with_temp ".blif" (fun out ->
        with_temp ".json" (fun json ->
            ignore
              (cli
                 [
                   "opt"; blif_path; "--goal"; Flow.Move.goal_name goal; "-e";
                   string_of_int effort; "-o"; out; "--json"; json;
                 ]);
            match J.of_string (read_all json) with
            | Ok j -> (read_all out, j)
            | Error e -> Alcotest.failf "%s: CLI report: %s" label e))
  in
  (* serve *)
  let serve =
    match
      Serve.Client.optimize client
        {
          P.id = Some label;
          circuit = P.Blif (read_all blif_path);
          goal = (goal :> [ `Size | `Depth | `Activity | `Search ]);
          effort;
          beam = 2;
          timeout_s = None;
          max_nodes = None;
          fault = None;
          emit = `Blif;
          stats = false;
        }
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: serve: %s" label e
  in
  Alcotest.(check (option string))
    (label ^ ": serve BLIF = CLI BLIF") (Some cli_blif) serve.P.blif;
  check_json (label ^ ": serve report = CLI report") cli_report serve.P.report;
  (* batch *)
  let batch =
    match
      Flow.Batch.run
        ~spec:{ Flow.Batch.default_spec with goal; effort }
        [
          {
            Flow.Batch.name = circuit;
            build = (fun () -> Logic_io.Blif.read_file blif_path);
          };
        ]
    with
    | [ o ] -> o
    | _ -> Alcotest.failf "%s: batch returned no single outcome" label
  in
  Alcotest.(check (pair int int))
    (label ^ ": batch size/depth = serve size/depth")
    (serve.P.size_out, serve.P.depth_out)
    (batch.Flow.Batch.size_out, batch.Flow.Batch.depth_out);
  check_json
    (label ^ ": batch report = CLI report")
    cli_report
    (Flow.Engine.report_to_json batch.Flow.Batch.report);
  (* the Table-I flow *)
  if goal = `Depth then begin
    let g, _ =
      Flow.mig_opt ~effort (Lsutil.Ctx.create ())
        (Logic_io.Blif.read_file blif_path)
    in
    Alcotest.(check string)
      (label ^ ": Flow.mig_opt BLIF = CLI BLIF") cli_blif (blif_of_mig g)
  end

let test_entry_points () =
  with_server (fun client ->
      List.iter
        (fun circuit ->
          with_temp ".blif" (fun blif_path ->
              ignore (cli [ "bench"; circuit; blif_path ]);
              List.iter
                (fun goal ->
                  List.iter
                    (fun effort ->
                      entry_points_agree client ~blif_path ~circuit ~goal
                        ~effort)
                    [ 1; 2 ])
                [ `Size; `Depth; `Activity ]))
        circuits)

(* The Verilog reader keeps [^] as XOR gates; every front end flattens
   them to AND/OR/INV (paper §V.A.1) before building the MIG, so
   [mighty map] optimizes the same subject graph as [mighty opt]. *)
let test_map_matches_opt_on_xor () =
  let optimized_line text =
    match
      List.find_opt
        (fun l -> String.starts_with ~prefix:"optimized" l)
        (String.split_on_char '\n' text)
    with
    | Some l -> l
    | None -> Alcotest.failf "no optimized line in:\n%s" text
  in
  with_temp ".v" (fun v ->
      ignore (cli [ "bench"; "my_adder"; v ]);
      Alcotest.(check bool)
        "the Verilog input has XOR gates" true
        (String.contains (read_all v) '^');
      Alcotest.(check string)
        "map and opt report the same optimized MIG"
        (optimized_line (cli [ "opt"; v ]))
        (optimized_line (cli [ "map"; v ])))

let () =
  Alcotest.run "entry"
    [
      ( "one answer",
        [
          Alcotest.test_case "mig_opt = batch = CLI = serve" `Quick
            test_entry_points;
          Alcotest.test_case "map = opt on a Verilog XOR input" `Quick
            test_map_matches_opt_on_xor;
        ] );
    ]
