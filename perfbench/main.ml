(* The repository benchmark.  Four seeded workloads drive the engine
   path that [mighty opt], [batch] and [serve] run, time every call into
   a layer from outside, and check every output with [Oracle].  See
   README.md in this directory for the workloads, the metrics and what
   each layer metric is predicted to move.

     main.exe --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is the JSON result. *)

module G = Network.Graph
module E = Flow.Engine
module P = Serve.Protocol

let now = Unix.gettimeofday
let out_dir = ".perfbench"

(* {1 Operations} *)

type op = {
  key : string;  (** ops with equal keys repeat the same work *)
  secs : float;  (** the op's latency *)
  size_in : int;
  depth_in : int;
  size_out : int;
  depth_out : int;
  qor : string;  (** everything a same-seed rerun must reproduce *)
  verdict : string option;  (** [None]: the oracle accepted the output *)
  report : E.report option;
  mapped : Tech.Mapper.result option;
  server_s : float;  (** serve: the result frame's [time_s] *)
  degraded : bool;  (** serve: the result frame said so *)
  rw : int * int;  (** edit: rewrite-cache hits, misses *)
  cones : int * int;  (** edit: POs stitched, POs re-optimized *)
}

let op0 =
  {
    key = "";
    secs = 0.;
    size_in = 1;
    depth_in = 1;
    size_out = 1;
    depth_out = 1;
    qor = "";
    verdict = None;
    report = None;
    mapped = None;
    server_s = 0.;
    degraded = false;
    rw = (0, 0);
    cones = (0, 0);
  }

(* [mighty opt]'s recipe: effort 2, no budget, the engine seed. *)
let spec goal =
  { Flow.Batch.goal; effort = 2; timeout_s = None; max_nodes = None; verify = None; seed = 0xda14 }

(* "recover:eliminate''#2" -> "eliminate" *)
let stem pass =
  let p =
    match String.index_opt pass ':' with
    | Some i -> String.sub pass (i + 1) (String.length pass - i - 1)
    | None -> pass
  in
  let p = match String.index_opt p '#' with Some i -> String.sub p 0 i | None -> p in
  match String.index_opt p '\'' with Some i -> String.sub p 0 i | None -> p

let pass_stems =
  [ "push_up"; "relevance"; "refactor"; "rewrite"; "eliminate"; "substitution"; "reshape" ]

(* The engine call, with its passes recorded as child spans timed by the
   engine's own report. *)
let engine tr optimize m =
  Trace.span tr "flow.engine" (fun () ->
      let t0 = Trace.now () in
      let ((_, rep) as r) = optimize m in
      ignore
        (List.fold_left
           (fun t (p : E.pass_report) ->
             Trace.reported tr ("mig." ^ stem p.pass) ~t0:t ~dur:p.time_s;
             t +. p.time_s)
           t0 rep.E.passes);
      r)

let oracle = Oracle.create ()
let report_ok (r : E.report) = r.E.verified && not r.E.degraded
let digest s = Digest.to_hex (Digest.string s)

(* Time [f] as one op: a root span whose self time is what no layer
   span covers. *)
let timed_op tr f =
  Trace.begin_op tr;
  let t0 = now () in
  let v = Calib.during (fun () -> Trace.span tr "bench.op" f) in
  (v, now () -. t0)

(* [mighty opt -g GOAL] on one generated file, cold: parse, flatten and
   convert, engine, convert back, write BLIF, and optionally map. *)
let cold_op tr ~goal ~map (c : Inputs.circuit) =
  Gc.compact ();
  let ctx = Lsutil.Ctx.create () in
  let optimize = Flow.Batch.optimizer_of_spec (spec goal) in
  let (m, (out, rep), blif, mapped), secs =
    timed_op tr (fun () ->
        let net = Trace.span tr "logic_io.parse" (fun () -> Logic_io.Blif.read c.text) in
        let m =
          Trace.span tr "mig.convert" (fun () ->
              Mig.Convert.of_network ~ctx (G.flatten_aoig net))
        in
        let ((out, _) as r) = engine tr optimize m in
        let onet = Trace.span tr "mig.convert" (fun () -> Mig.Convert.to_network out) in
        let blif = Trace.span tr "logic_io.emit" (fun () -> Inputs.blif_text onet) in
        let mapped =
          if map then
            Some
              (Trace.span tr "tech.map" (fun () ->
                   Tech.Mapper.map_network ~ctx ~lib:Tech.Cells.full onet))
          else None
        in
        (m, r, blif, mapped))
  in
  let verdict =
    if not (report_ok rep) then Some (c.name ^ ": engine reports degraded or unverified")
    else Oracle.check oracle ~name:c.name ~expected:c.net ~expected_key:(digest c.text) blif
  in
  let size_out = Mig.Graph.size out and depth_out = Mig.Graph.depth out in
  {
    op0 with
    key = c.name;
    secs;
    size_in = Mig.Graph.size m;
    depth_in = Mig.Graph.depth m;
    size_out;
    depth_out;
    qor =
      Printf.sprintf "%d/%d/%s/%s" size_out depth_out (digest blif)
        (match mapped with
        | Some r -> Printf.sprintf "%h/%h" r.Tech.Mapper.delay r.Tech.Mapper.area
        | None -> "-");
    verdict;
    report = Some rep;
    mapped;
  }

(* {1 Rounds} *)

type round = {
  traced : bool;
  wall : float;  (** the round's own time: its ops, or its serve sessions *)
  factor : float;  (** to the reference speed, from the round's kernel samples *)
  ops : op list;
  spans : Trace.span list;
}

(* Run rounds for [seconds]: at least [min_rounds], and another only
   while it is expected to fit.  With [trace], rounds alternate between
   untraced and traced, so both halves see the same conditions.
   [between] runs after each round.  Each round's [factor] comes from
   the kernel samples [Calib] took while it ran. *)
let measure ~seconds ~trace ~min_rounds ~between (round : traced:bool -> round) =
  let t0 = now () in
  let rec go acc n =
    let elapsed = now () -. t0 in
    let mean = if n = 0 then 0. else elapsed /. float_of_int n in
    if n >= min_rounds && elapsed +. mean > seconds then List.rev acc
    else
      let mark = Calib.count () in
      let r = round ~traced:(trace && n mod 2 = 1) in
      let r = { r with factor = Calib.factor ~mark () } in
      between ();
      go (r :: acc) (n + 1)
  in
  go [] 0

let untraced rounds = List.filter (fun r -> not r.traced) rounds
let traced rounds = List.filter (fun r -> r.traced) rounds
let ops_of rounds = List.concat_map (fun r -> r.ops) rounds
let secs_of ops = Array.of_list (List.map (fun o -> o.secs) ops)

(* Latency of a repeated op: its median over the rounds. *)
let per_key_median ops =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun o ->
      Hashtbl.replace tbl o.key (o.secs :: Option.value ~default:[] (Hashtbl.find_opt tbl o.key)))
    ops;
  Hashtbl.fold (fun k v acc -> (k, Stats.median (Array.of_list v)) :: acc) tbl []
  |> List.sort compare

(* One op per key (the first seen), for QoR figures. *)
let distinct ops =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun o ->
      (not (Hashtbl.mem seen o.key))
      && (Hashtbl.add seen o.key ();
          true))
    ops

(* A same-seed op must reproduce its QoR exactly. *)
let nondeterministic ops =
  let first = Hashtbl.create 64 in
  List.filter_map
    (fun o ->
      match Hashtbl.find_opt first o.key with
      | None ->
          Hashtbl.add first o.key o.qor;
          None
      | Some q when q = o.qor -> None
      | Some _ -> Some (o.key ^ ": QoR differs between repetitions"))
    ops

let ratio a b = float_of_int a /. float_of_int b

let qor_ratios ops =
  [
    ("size_ratio", Stats.geomean (List.map (fun o -> ratio o.size_out o.size_in) ops), "ratio");
    ("depth_ratio", Stats.geomean (List.map (fun o -> ratio o.depth_out o.depth_in) ops), "ratio");
  ]

(* Measured latency of [ops] as [prefix.p50] and [prefix.p90]; the
   runs are sized so that at least ten samples lie beyond p90, and a run
   that falls short says so on stderr. *)
let latency_metrics prefix ops =
  let ms = Array.map (fun s -> s *. 1000.) (secs_of ops) in
  if not (Stats.percentile_ok 0.9 (Array.length ms)) then
    Printf.eprintf "perfbench: %s.p90 rests on only %d samples\n%!" prefix (Array.length ms);
  [ (prefix ^ ".p50", Stats.median ms, "ms"); (prefix ^ ".p90", Stats.percentile 0.9 ms, "ms") ]


(* {1 Set-up} *)

(* Set-up is what the program does before its first op: process start
   and module initialisation, then the workload's one-time program calls
   ([probe_main] below).  Each sample runs in a fresh process ([main.exe
   --probe W]), so one-time work (lazy tables, initialisers) is in every
   sample.  The probe reports as [excluded_s] the time it spent on work
   that is not set-up (generating its inputs, stopping the daemon); a
   sample is the probe's lifetime minus [excluded_s].  The host's speed
   drifts over seconds, so the samples are spread over the run: the
   first before the rounds, the others ([more], called between rounds
   until [samples] are taken) after them; the median is reported.  A
   probe may report more figures ([extra], medians over the samples). *)
type probes = {
  more : unit -> unit;
  setup_s : unit -> float;
  samples : unit -> float list;
  extra : string -> float;
}

let probe_cache ~seed k = Filename.concat out_dir (Printf.sprintf "edit-cache-%d-%d.json" seed k)

let probe ~workload ~seed k =
  let exe = Sys.executable_name in
  let args = [| exe; "--probe"; workload; "--seed"; string_of_int seed; "--sample"; string_of_int k |] in
  let t0 = now () in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let life = now () -. t0 in
  if status <> Unix.WEXITED 0 then failwith ("set-up probe failed: " ^ workload);
  let figures =
    String.split_on_char '\n' out
    |> List.filter_map (fun l -> Scanf.sscanf_opt l "%s %f" (fun k v -> (k, v)))
  in
  (life -. List.assoc "excluded_s" figures, figures)

let probes ~workload ~seed ~samples =
  let taken = ref [] in
  let more () =
    let k = List.length !taken in
    if k < samples then taken := probe ~workload ~seed k :: !taken
  in
  more ();
  let median f = Stats.median (Array.of_list (List.map f !taken)) in
  {
    more;
    setup_s = (fun () -> median fst);
    samples = (fun () -> List.rev_map fst !taken);
    extra = (fun k -> median (fun (_, l) -> Option.value ~default:0. (List.assoc_opt k l)));
  }

(* {1 Workloads} *)

type result = {
  rounds : round list;
  setup : probes;
  setup_rescaled : bool;  (** [setup_s] is reported at the reference speed *)
  work_s : float;  (** the workload's end-to-end time, measured *)
  wall_ref_s : float;  (** the same, at the reference speed *)
  qor : (string * float * string) list;
  layers : (string * float * string) list;  (** beyond the ledger's *)
  detail : (string * float * string) list;  (** stderr only *)
}

(* The end-to-end time of a workload whose round is a series of ops:
   the sum over ops of each op's median over the untraced rounds,
   measured and at the reference speed (each op scaled by its round's
   factor). *)
let series_wall rounds =
  let sum scale =
    List.concat_map (fun r -> List.map (fun o -> { o with secs = o.secs *. scale r }) r.ops) (untraced rounds)
    |> per_key_median |> List.map snd |> Stats.sum
  in
  (sum (fun _ -> 1.), sum (fun r -> r.factor))

let median_of f l = Stats.median (Array.of_list (List.map f l))

let ops_round ~traced tr ops =
  { traced; wall = Stats.sum (List.map (fun o -> o.secs) ops); factor = 1.; ops; spans = tr.Trace.spans }

(* table1-depth: the 14 Table-I circuits, depth goal, effort 2, mapped
   on the full library, one after another in a seeded order. *)
let table1_inputs ~seed = Inputs.table1 ~seed Benchmarks.Suite.names

let table1_depth ~seed ~seconds ~trace =
  let su = probes ~workload:"table1-depth" ~seed ~samples:9 in
  Mig.Transform.prewarm ();
  let inputs = table1_inputs ~seed in
  let rng = Lsutil.Rng.create (0x0de5 + seed) in
  let round ~traced =
    let tr = Trace.create traced in
    Array.to_list (Inputs.shuffle rng (Array.of_list inputs))
    |> List.map (cold_op tr ~goal:`Depth ~map:true)
    |> ops_round ~traced tr
  in
  let rounds = measure ~seconds ~trace ~min_rounds:2 ~between:(fun () -> for _ = 1 to 4 do su.more () done) round in
  let firsts = List.sort (fun a b -> compare a.key b.key) (distinct (ops_of rounds)) in
  let mapped f = Stats.geomean (List.filter_map (fun o -> Option.map f o.mapped) firsts) in
  let work_s, wall_ref_s = series_wall rounds in
  let rows =
    let med = per_key_median (ops_of rounds) in
    List.concat_map
      (fun o ->
        let p = "circuit." ^ o.key in
        [
          (p ^ ".time_s", List.assoc o.key med, "s");
          (p ^ ".size_out", float_of_int o.size_out, "count");
          (p ^ ".depth_out", float_of_int o.depth_out, "count");
        ])
      firsts
  in
  let cells =
    Stats.sum
      (List.map
         (fun o ->
           match o.mapped with
           | Some r -> float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 r.Tech.Mapper.cell_counts)
           | None -> 0.)
         firsts)
  in
  {
    rounds;
    setup = su;
    setup_rescaled = true;
    work_s;
    wall_ref_s;
    qor = qor_ratios firsts;
    layers =
      [
        ("tech.cells", cells, "count");
        ("tech.mapped_delay_ns", mapped (fun r -> r.Tech.Mapper.delay), "ns");
        ("tech.mapped_area_um2", mapped (fun r -> r.Tech.Mapper.area), "um2");
      ];
    detail = rows;
  }

(* compress-size: the §V.A.2 compression circuit through the size goal,
   cold, written back as BLIF, not mapped.  One op per round.  Window 24
   (7.4k gates, about 2 s an op) rather than the paper's 36 (34.5k
   gates, about 5 s): a 25 s run then holds about ten ops, and their
   median holds still where three 5 s ops did not. *)
let compress_input ~seed =
  Inputs.circuit
    (Lsutil.Rng.create (0xc0de + seed))
    ~tag:(Inputs.tag_of_seed seed) "compress"
    (Benchmarks.Suite.compression ~window:24 ())

let compress_size ~seed ~seconds ~trace =
  let su = probes ~workload:"compress-size" ~seed ~samples:9 in
  Mig.Transform.prewarm ();
  let input = compress_input ~seed in
  let round ~traced =
    let tr = Trace.create traced in
    ops_round ~traced tr [ cold_op tr ~goal:`Size ~map:false input ]
  in
  let rounds = measure ~seconds ~trace ~min_rounds:3 ~between:(fun () -> for _ = 1 to 3 do su.more () done) round in
  let work_s, wall_ref_s = series_wall rounds in
  {
    rounds;
    setup = su;
    setup_rescaled = true;
    work_s;
    wall_ref_s;
    qor = qor_ratios (distinct (ops_of rounds));
    layers = [];
    detail = [];
  }

(* serve-small: an in-process daemon at its default config, fed by two
   closed-loop client threads on persistent connections with inline-BLIF
   requests over the nine circuits of at most 1.3k gates, both goals.
   A round is one session per client: each sends the whole 18-request
   block in its own seeded order on one connection, then closes.  The
   files are the same for every seed (the seed-0 presentation): on 18
   small circuits the presentation alone moves the QoR geomeans by
   about 1% from seed to seed, and the seed already picks the order. *)
let serve_circuits =
  [ "C1355"; "C1908"; "my_adder"; "cla"; "dalu"; "b9"; "count"; "alu4"; "misex3" ]

let serve_clients = 2

type reply = {
  circuit : Inputs.circuit;
  rkey : string;
  rsecs : float;
  frame : (P.result_frame, string) Stdlib.result;
}

let request_key (c : Inputs.circuit) goal =
  c.name ^ match goal with `Size -> "~size" | `Depth -> "~depth"

(* One client's session: connect, send the block, close.  A request that
   could not be sent counts as failed with infinite latency. *)
let serve_session ~addr ~traced ~tag i (block : (Inputs.circuit * [ `Size | `Depth ]) array) =
  let tr = Trace.create traced in
  Trace.begin_op tr;
  let replies =
    Trace.span tr "bench.session" (fun () ->
        match Trace.span tr "serve.connect" (fun () -> Serve.Client.connect addr) with
        | Error e ->
            Array.to_list
              (Array.map
                 (fun (c, goal) ->
                   {
                     circuit = c;
                     rkey = request_key c goal;
                     rsecs = infinity;
                     frame = Error ("connect: " ^ e);
                   })
                 block)
        | Ok conn ->
            let replies =
              Array.to_list
                (Array.mapi
                   (fun k ((c : Inputs.circuit), goal) ->
                     let r =
                       match
                         P.optimize ~id:(Printf.sprintf "%s.%d.%d" tag i k)
                           ~goal:(goal :> [ `Size | `Depth | `Activity | `Search ])
                           ~effort:2
                           ~emit:`Blif (P.Blif c.text)
                       with
                       | P.Optimize r -> r
                       | P.Ping -> assert false
                     in
                     let t0 = now () in
                     let frame =
                       Trace.span tr "serve.request" (fun () -> Serve.Client.optimize conn r)
                     in
                     { circuit = c; rkey = request_key c goal; rsecs = now () -. t0; frame })
                   block)
            in
            Serve.Client.close conn;
            replies)
  in
  (replies, tr.Trace.spans)

let serve_op { circuit = c; rkey; rsecs; frame } =
  match frame with
  | Error e -> { op0 with key = rkey; secs = rsecs; verdict = Some (rkey ^ ": " ^ e) }
  | Ok rf ->
      let verdict =
        match rf.P.blif with
        | _ when rf.P.degraded || not rf.P.verified ->
            Some (rkey ^ ": degraded or unverified reply")
        | None -> Some (rkey ^ ": reply carries no BLIF")
        | Some b -> Oracle.check oracle ~name:rkey ~expected:c.net ~expected_key:(digest c.text) b
      in
      {
        op0 with
        key = rkey;
        secs = rsecs;
        size_in = rf.P.size_in;
        depth_in = rf.P.depth_in;
        size_out = rf.P.size_out;
        depth_out = rf.P.depth_out;
        qor =
          Printf.sprintf "%d/%d/%s" rf.P.size_out rf.P.depth_out
            (digest (Option.value ~default:"" rf.P.blif));
        verdict;
        server_s = rf.P.time_s;
        degraded = rf.P.degraded;
      }

(* The daemon at its default config, answering a first ping. *)
let launch_server () =
  let srv =
    Serve.Server.launch
      (Serve.Server.default_config ~env:Lsutil.Env.defaults (`Tcp ("127.0.0.1", 0)))
  in
  let addr = Serve.Server.bound_addr srv in
  (match Serve.Client.connect addr with
  | Error e -> failwith ("serve: connect: " ^ e)
  | Ok c ->
      let pong = Serve.Client.ping c in
      Serve.Client.close c;
      Result.iter_error (fun e -> failwith ("serve: ping: " ^ e)) pong);
  (srv, addr)

let stop_server srv =
  Serve.Server.drain srv;
  Serve.Server.join srv

let serve_small ~seed ~seconds ~trace =
  let su = probes ~workload:"serve-small" ~seed ~samples:9 in
  let inputs = Inputs.table1 ~seed:0 serve_circuits in
  let srv, addr = launch_server () in
  let block = Array.of_list (List.concat_map (fun c -> [ (c, `Size); (c, `Depth) ]) inputs) in
  let rng = Lsutil.Rng.create (0x5e7e + seed) in
  let count = ref 0 in
  let round ~traced =
    incr count;
    let tag = Printf.sprintf "r%d" !count in
    let blocks = Array.init serve_clients (fun _ -> Inputs.shuffle rng block) in
    (* client threads, not domains: they mostly wait on their sockets,
       and two more domains would take part in every stop-the-world
       minor collection of the server's worker *)
    let sessions = Array.make serve_clients ([], []) in
    let t0 = now () in
    Calib.during (fun () ->
        Array.mapi
          (fun i b ->
            Thread.create (fun () -> sessions.(i) <- serve_session ~addr ~traced ~tag i b) ())
          blocks
        |> Array.iter Thread.join);
    let wall = now () -. t0 in
    let replies = List.concat_map fst (Array.to_list sessions) in
    {
      traced;
      wall;
      ops = List.map serve_op replies;
      factor = 1.;
      spans = List.concat_map snd (Array.to_list sessions);
    }
  in
  let rounds =
    Fun.protect ~finally:(fun () -> stop_server srv) (fun () ->
        measure ~seconds ~trace ~min_rounds:3 ~between:(fun () -> su.more (); su.more ()) round)
  in
  let requests = List.length (ops_of (untraced rounds)) in
  let answered = List.filter (fun o -> o.verdict = None) (ops_of rounds) in
  let busy = Stats.sum (List.map (fun r -> r.wall) (untraced rounds)) in
  let tops = ops_of (traced rounds) in
  let ms f l = Array.of_list (List.map (fun o -> 1000. *. f o) l) in
  let spans = List.concat_map (fun r -> r.spans) (traced rounds) in
  let connects =
    Array.of_list
      (List.filter_map
         (fun (s : Trace.span) ->
           if s.name = "serve.connect" then Some (1000. *. (s.t1 -. s.t0)) else None)
         spans)
  in
  let waits = ms (fun o -> o.secs -. o.server_s) tops in
  {
    rounds;
    setup = su;
    (* set-up is mostly the client's fixed 20 ms greeting wait in the
       first connect, which does not scale with the host's speed *)
    setup_rescaled = false;
    work_s = median_of (fun r -> r.wall) (untraced rounds);
    wall_ref_s = median_of (fun r -> r.wall *. r.factor) (untraced rounds);
    qor = qor_ratios (distinct answered);
    layers =
      latency_metrics "serve.latency_ms" (ops_of rounds)
      @ [
        ("serve.throughput_rps", float_of_int requests /. busy, "1/s");
        ("serve.connect_ms", Stats.median connects, "ms");
        ("serve.server_ms.p50", Stats.median (ms (fun o -> o.server_s) tops), "ms");
        ("serve.wait_ms.p50", Stats.median waits, "ms");
        ("serve.wait_ms.max", Array.fold_left Float.max neg_infinity waits, "ms");
        ("serve.rejected", float_of_int (Serve.Server.rejected srv), "count");
        ( "serve.degraded",
          float_of_int (List.length (List.filter (fun o -> o.degraded) (ops_of rounds))),
          "count" );
      ];
    detail = [];
  }

(* edit-warm: set-up cold-fills a [Flow.Cache] over a pool of Table-I
   circuits through [Flow.Batch.run ~cache], saves the mighty-cache/1
   file and loads it back.  The run re-optimizes a seeded series of
   single-output edits (one PO complemented, the same number on every
   circuit) against that store, on the path [Flow.Batch.run ~cache]
   takes per item: a fork of the rewrite cache, the spec's optimizer,
   [Flow.Cutoff.run].  Edits are not absorbed, so every repetition of an
   edit does the same work. *)
let edit_circuits = [ "s38417"; "C1908"; "cla"; "dalu"; "b9"; "alu4"; "misex3"; "count" ]
let edits_per_circuit = 7
let edit_spec = spec `Depth
let edit_inputs ~seed = Inputs.table1 ~seed edit_circuits

type cache_io = { save_s : float; load_s : float }

let fill_cache ~path inputs =
  if Sys.file_exists path then Sys.remove path;
  let cold = Flow.Cache.empty_at path in
  ignore
    (Flow.Batch.run ~spec:edit_spec ~cache:cold
       (List.map
          (fun (c : Inputs.circuit) -> { Flow.Batch.name = c.name; build = (fun () -> c.net) })
          inputs));
  let t0 = now () in
  Result.iter_error failwith (Flow.Cache.save cold);
  let t1 = now () in
  Result.iter_error failwith (Flow.Cache.load path);
  { save_s = t1 -. t0; load_s = now () -. t1 }

type edit = { ename : string; input : G.t; ikey : string }

let edit_op tr cache (e : edit) =
  let ctx = Lsutil.Ctx.create () in
  let salt = Flow.Batch.salt_of_spec edit_spec in
  let (m, rwh, r, onet), secs =
    timed_op tr (fun () ->
        let m =
          Trace.span tr "mig.convert" (fun () ->
              Mig.Convert.of_network ~ctx (G.flatten_aoig e.input))
        in
        let rwh = Mig.Rwcache.fork (Flow.Cache.rw cache) in
        let optimize = engine tr (Flow.Batch.optimizer_of_spec ~cache:rwh edit_spec) in
        let r =
          Trace.span tr "cutoff.run" (fun () ->
              Flow.Cutoff.run ~salt ~store:(Flow.Cache.cones cache) ~optimize
                ~seed:edit_spec.seed m)
        in
        let onet = Trace.span tr "mig.convert" (fun () -> Mig.Convert.to_network r.Flow.Cutoff.graph) in
        (m, rwh, r, onet))
  in
  let blif = Inputs.blif_text onet in
  let g = r.Flow.Cutoff.graph in
  let size_out = Mig.Graph.size g and depth_out = Mig.Graph.depth g in
  {
    op0 with
    key = e.ename;
    secs;
    size_in = Mig.Graph.size m;
    depth_in = Mig.Graph.depth m;
    size_out;
    depth_out;
    qor = Printf.sprintf "%d/%d/%s" size_out depth_out (digest blif);
    verdict =
      (if not (report_ok r.Flow.Cutoff.report) then Some (e.ename ^ ": degraded or unverified")
       else Oracle.check oracle ~name:e.ename ~expected:e.input ~expected_key:e.ikey blif);
    report = Some r.Flow.Cutoff.report;
    rw = (Mig.Rwcache.hits rwh, Mig.Rwcache.misses rwh);
    cones = (r.Flow.Cutoff.reused, r.Flow.Cutoff.reoptimized);
  }

let edit_warm ~seed ~seconds ~trace =
  (* the first probe's cache file is the store the edits run against *)
  let su = probes ~workload:"edit-warm" ~seed ~samples:5 in
  let path = probe_cache ~seed 0 in
  let cache = match Flow.Cache.load path with Ok c -> c | Error e -> failwith e in
  Sys.remove path;
  Mig.Transform.prewarm ();
  let inputs = edit_inputs ~seed in
  let rng = Lsutil.Rng.create (0xed17 + seed) in
  let edits =
    List.concat_map
      (fun (c : Inputs.circuit) ->
        List.map
          (fun k ->
            {
              ename = Printf.sprintf "%s~po%d" c.name k;
              input = Inputs.complement_po c k;
              ikey = Printf.sprintf "%s~%d" (digest c.text) k;
            })
          (Inputs.stratified_pos c edits_per_circuit))
      inputs
    |> Array.of_list |> Inputs.shuffle rng
  in
  (* every round runs the series in the same order, so the collector's
     work falls on the same edits in every round *)
  let round ~traced =
    let tr = Trace.create traced in
    Gc.compact ();
    ops_round ~traced tr (Array.to_list (Array.map (edit_op tr cache) edits))
  in
  let rounds = measure ~seconds ~trace ~min_rounds:3 ~between:su.more round in
  let work_s, wall_ref_s = series_wall rounds in
  let tops = ops_of (traced rounds) in
  let share f =
    let a, b = List.fold_left (fun (x, y) o -> let p, q = f o in (x + p, y + q)) (0, 0) tops in
    if a + b = 0 then 0. else ratio a (a + b)
  in
  {
    rounds;
    setup = su;
    setup_rescaled = true;
    work_s;
    wall_ref_s;
    qor = qor_ratios (distinct (ops_of rounds));
    detail = [];
    layers =
      latency_metrics "edit.latency_ms" (ops_of rounds)
      @ [
        ("cache.load_s", su.extra "load_s", "s");
        ("cache.save_s", su.extra "save_s", "s");
        ("cache.rw_hit_share", share (fun o -> o.rw), "share");
        ("cutoff.reuse_share", share (fun o -> o.cones), "share");
      ];
  }

(* {1 Layer ledger} *)

(* Per-round self time of each layer over the traced rounds, the
   engine-report figures, the unattributed share of the ops' time, and
   the tracing overhead against the untraced rounds.  A layer the
   workload's path does not call reads 0. *)
let ledger rounds =
  let tr = traced rounds in
  let n = float_of_int (max 1 (List.length tr)) in
  let spans = List.concat_map (fun r -> r.spans) tr in
  let self = Trace.self_times spans in
  let per_round name = Trace.self_of self name /. n in
  let roots = Trace.total spans "bench.op" +. Trace.total spans "bench.session" in
  let unattributed = Trace.self_of self "bench.op" +. Trace.self_of self "bench.session" in
  let wall rs = Stats.median (Array.of_list (List.map (fun r -> r.wall) rs)) in
  let reports = List.filter_map (fun o -> o.report) (ops_of tr) in
  let idle =
    (* a pass is idle when size and depth match the previous pass's *)
    List.concat_map
      (fun (r : E.report) ->
        let rec go = function
          | (a : E.pass_report) :: (b :: _ as rest) ->
              (a.E.size = b.E.size && a.E.depth = b.E.depth) :: go rest
          | _ -> []
        in
        go r.E.passes)
      reports
  in
  let layer name metric = [ (metric, per_round name, "s") ] in
  [
    ("bench.unattributed_share", (if roots > 0. then unattributed /. roots else 0.), "share");
    ("bench.trace_overhead_share", (wall tr /. wall (untraced rounds)) -. 1., "share");
  ]
  @ layer "logic_io.parse" "logic_io.parse_s"
  @ layer "logic_io.emit" "logic_io.emit_s"
  @ layer "mig.convert" "mig.convert_s"
  @ [
      ("flow.engine_s", Trace.total spans "flow.engine" /. n, "s");
      ("flow.overhead_s", per_round "flow.engine", "s");
      ( "flow.rollbacks",
        float_of_int (List.fold_left (fun a (r : E.report) -> a + r.E.rollbacks) 0 reports) /. n,
        "count" );
      ( "mig.idle_pass_share",
        ratio (List.length (List.filter Fun.id idle)) (max 1 (List.length idle)),
        "share" );
    ]
  @ List.concat_map (fun s -> layer ("mig." ^ s) ("mig." ^ s ^ "_s")) pass_stems
  @ layer "tech.map" "tech.map_s"
  @ layer "cutoff.run" "cutoff.overhead_s"

(* {1 Report} *)

(* The process's peak resident set ([VmHWM]); the report leaves out the
   benchmark's own [Calib] table. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* The same seed must give the same QoR in every run of this build: the
   first run records it, later runs compare. *)
let cross_run_check ~workload ~seed qor =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let path = Filename.concat out_dir (Printf.sprintf "qor-%s-%d-%s" workload seed build) in
  if Sys.file_exists path then (
    let ic = open_in_bin path in
    let prev = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if prev = qor then None else Some "QoR differs from an earlier run with the same seed")
  else (
    let oc = open_out_bin path in
    output_string oc qor;
    close_out oc;
    None)

(* The metrics of BENCHMARK.json, in its order, with their units.
   Every run prints each of one list: the end-to-end list with
   [--trace 0], the per-layer list with [--trace 1].  A layer that the
   workload's path does not call reads 0. *)
let end_to_end_metrics =
  [
    ("wall_ref_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ok_share", "share");
    ("size_ratio", "ratio");
    ("depth_ratio", "ratio");
  ]

let per_layer_metrics =
  [
    ("bench.latency_samples", "count");
    ("bench.unattributed_share", "share");
    ("bench.trace_overhead_share", "share");
    ("logic_io.parse_s", "s");
    ("logic_io.emit_s", "s");
    ("mig.convert_s", "s");
    ("flow.engine_s", "s");
    ("flow.overhead_s", "s");
    ("flow.rollbacks", "count");
    ("mig.idle_pass_share", "share");
  ]
  @ List.map (fun s -> ("mig." ^ s ^ "_s", "s")) pass_stems
  @ [
      ("tech.map_s", "s");
      ("tech.cells", "count");
      ("tech.mapped_delay_ns", "ns");
      ("tech.mapped_area_um2", "um2");
      ("cache.load_s", "s");
      ("cache.save_s", "s");
      ("cache.rw_hit_share", "share");
      ("cutoff.reuse_share", "share");
      ("cutoff.overhead_s", "s");
      ("edit.latency_ms.p50", "ms");
      ("edit.latency_ms.p90", "ms");
      ("serve.latency_ms.p50", "ms");
      ("serve.latency_ms.p90", "ms");
      ("serve.throughput_rps", "1/s");
      ("serve.connect_ms", "ms");
      ("serve.server_ms.p50", "ms");
      ("serve.wait_ms.p50", "ms");
      ("serve.wait_ms.max", "ms");
      ("serve.rejected", "count");
      ("serve.degraded", "count");
    ]

(* [manifest]'s metrics, in its order, from [computed]. *)
let select manifest computed =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (k, _, _) -> k = name) computed with
      | Some (_, v, u) when u = unit -> (name, v, unit)
      | Some (_, _, u) -> failwith (Printf.sprintf "%s: unit %s, manifest says %s" name u unit)
      | None -> (name, 0., unit))
    manifest

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  let metric (k, v, u) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v) u in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* {1 Set-up probe} *)

(* What [mighty opt] does before the engine runs: the pattern table,
   and the inputs read and converted. *)
let ingest (cs : Inputs.circuit list) =
  Mig.Transform.prewarm ();
  List.iter
    (fun (c : Inputs.circuit) ->
      let ctx = Lsutil.Ctx.create () in
      ignore (Mig.Convert.of_network ~ctx (G.flatten_aoig (Logic_io.Blif.read c.text))))
    cs

(* One set-up sample of [workload], run as [main.exe --probe W]: print
   [excluded_s] and the workload's own figures, one "name value" a
   line. *)
let probe_main ~workload ~seed ~sample =
  let t0 = now () in
  let gen () = ("excluded_s", now () -. t0) in
  let figures =
    match workload with
    | "table1-depth" ->
        let cs = table1_inputs ~seed in
        let g = gen () in
        ingest cs;
        [ g ]
    | "compress-size" ->
        let c = compress_input ~seed in
        let g = gen () in
        ingest [ c ];
        [ g ]
    | "serve-small" ->
        let srv, _ = launch_server () in
        let t = now () in
        stop_server srv;
        [ ("excluded_s", now () -. t) ]
    | "edit-warm" ->
        let inputs = edit_inputs ~seed in
        let g = gen () in
        let path = probe_cache ~seed sample in
        let io = fill_cache ~path inputs in
        (* the first sample's file is the store of the run *)
        if sample > 0 then Sys.remove path;
        [ g; ("save_s", io.save_s); ("load_s", io.load_s) ]
    | _ -> invalid_arg ("probe: unknown workload " ^ workload)
  in
  List.iter (fun (k, v) -> Printf.printf "%s %.17g\n" k v) figures

let workloads =
  [
    ("table1-depth", table1_depth);
    ("compress-size", compress_size);
    ("serve-small", serve_small);
    ("edit-warm", edit_warm);
  ]

let usage () =
  prerr_endline "usage: main.exe --workload W --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  if List.mem_assoc "probe" opts then (
    probe_main ~workload:(get "probe") ~seed:(int "seed") ~sample:(int "sample");
    exit 0);
  let workload = get "workload" and seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let run = match List.assoc_opt workload workloads with Some w -> w | None -> usage ()
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let r = run ~seed ~seconds ~trace in
  Calib.stop ();
  let ops = ops_of r.rounds in
  let failures =
    List.filter_map (fun o -> o.verdict) ops
    @ nondeterministic ops
    @ Option.to_list
        (cross_run_check ~workload ~seed
           (String.concat "\n"
              (List.map
                 (fun o -> o.key ^ " " ^ o.qor)
                 (List.sort (fun a b -> compare a.key b.key) (distinct ops)))))
  in
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun o -> o.verdict <> None) ops) in
  List.iter (fun f -> prerr_endline ("perfbench: FAIL " ^ f)) failures;
  let metrics =
    if trace then (
      let spans = List.concat_map (fun r -> r.spans) r.rounds in
      Trace.write_file
        (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed))
        spans;
      select per_layer_metrics
        ((("bench.latency_samples", float_of_int (List.length ops), "count") :: ledger r.rounds)
        @ r.layers))
    else
      let k = Calib.factor () in
      select end_to_end_metrics
        ([
           ("wall_ref_s", r.wall_ref_s, "s");
           ("setup_s", (r.setup.setup_s () *. if r.setup_rescaled then k else 1.), "s");
           ("peak_rss_mb", peak_rss_mb () -. Calib.table_mb (), "MB");
           ("ok_share", ratio (attempted - failed) attempted, "share");
         ]
        @ r.qor)
  in
  List.iter (fun (k, v, u) -> Printf.eprintf "  %-28s %14.6g %s\n" k v u) (metrics @ r.detail);
  Printf.eprintf
    "  (%d rounds, %d latency samples, %d/%d ops ok; measured: wall %.4f s, set-up %.4f s (samples %s), \
     round walls %s; \
     factors to the reference speed: rounds %s, whole run %.4f from %d kernel samples)\n%!"
    (List.length r.rounds) (List.length ops) (attempted - failed) attempted r.work_s
    (r.setup.setup_s ())
    (String.concat " " (List.map (Printf.sprintf "%.4f") (r.setup.samples ())))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) r.rounds))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.factor) r.rounds))
    (Calib.factor ()) (Calib.count ());
  print_result ~correct:(failures = []) ~attempted ~failed metrics
