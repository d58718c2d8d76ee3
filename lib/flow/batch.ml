(* Multi-domain batch driver: the reentrancy proof for the explicit
   execution context.  Each circuit gets its own fresh ctx and runs a
   full Engine pipeline; workers are plain domains pulling indices off
   an atomic counter and writing into disjoint result slots, so the
   merged output is in input order by construction and bit-identical
   for any job count. *)

module T = Lsutil.Telemetry
module Ctx = Lsutil.Ctx
module G = Mig.Graph

type spec = {
  goal : [ `Size | `Depth | `Activity ];
  effort : int;
  timeout_s : float option;
  max_nodes : int option;
  verify : bool option;
  seed : int;
}

let default_spec =
  {
    goal = `Size;
    effort = 2;
    timeout_s = None;
    max_nodes = None;
    verify = None;
    seed = 1;
  }

type item = { name : string; build : unit -> Network.Graph.t }

type cache_use = {
  rw_hits : int;
  rw_misses : int;
  reused_pos : int;
  reopt_pos : int;
}

type outcome = {
  name : string;
  size_in : int;
  depth_in : int;
  size_out : int;
  depth_out : int;
  report : Engine.report;
  time_s : float;
  telemetry : T.node option;
  cache : cache_use option;
}

(* [pmap ~jobs f arr] with a shared atomic work index and one result
   slot per item.  [Domain.join] provides the happens-before edge that
   publishes every slot written by a worker; no other synchronisation
   is needed because slots are disjoint.  [jobs] is taken literally
   (clamped only to the item count), so tests can force genuine
   multi-domain execution on any host; {!run} applies the hardware
   cap. *)
let pmap_opt ?stop ~jobs f arr =
  let stopped () = match stop with Some s -> Atomic.get s | None -> false in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  let out = Array.make n None in
  if jobs <= 1 then begin
    let i = ref 0 in
    while !i < n && not (stopped ()) do
      out.(!i) <- Some (f !i arr.(!i));
      incr i
    done
  end
  else begin
    let next = Atomic.make 0 in
    let worker () =
      (* the stop flag is checked between claims, never mid-item: an
         interrupted batch still hands back only whole, verified
         outcomes *)
      let rec loop () =
        if not (stopped ()) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            out.(i) <- Some (f i arr.(i));
            loop ()
          end
        end
      in
      loop ()
    in
    let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned
  end;
  out

let pmap ~jobs f arr =
  Array.map
    (function Some v -> v | None -> assert false)
    (pmap_opt ~jobs f arr)

(* Everything that changes the optimizer's answer must land in the
   cone-fingerprint salt, or a store written under one recipe would be
   replayed under another. *)
let salt_of_spec spec =
  Printf.sprintf "%s:e%d:s%d:t%s:n%s:v%s"
    (match spec.goal with `Size -> "size" | `Depth -> "depth" | `Activity -> "act")
    spec.effort spec.seed
    (match spec.timeout_s with None -> "-" | Some t -> Printf.sprintf "%g" t)
    (match spec.max_nodes with None -> "-" | Some n -> string_of_int n)
    (match spec.verify with None -> "-" | Some b -> string_of_bool b)

(* The single construction point for "this spec's optimizer": the
   engine pipeline (via the move vocabulary behind [Engine.of_goal])
   and the matching checkpoint ranking, run under the spec's budget
   and verification policy.  Every optimize entry point builds its
   optimizer here, so a recipe means the same thing everywhere it is
   replayed. *)
let optimizer_of_spec ?cache ?trace spec =
  let passes = Engine.of_goal ~effort:spec.effort ?cache spec.goal in
  fun g ->
    Engine.run ?verify:spec.verify ?timeout_s:spec.timeout_s
      ?max_nodes:spec.max_nodes ?trace
      ~cost:(Engine.cost_of_goal spec.goal)
      ~seed:spec.seed ~passes g

let run_item ~spec ~ctx ~shared item =
  let deltas = ref ([], []) in
  let work () =
    let net = Network.Graph.flatten_aoig (item.build ()) in
    let m = Mig.Convert.of_network ~ctx net in
    let size_in = G.size m and depth_in = G.depth m in
    match shared with
    | None ->
        let out, report = optimizer_of_spec spec m in
        (size_in, depth_in, G.size out, G.depth out, report, None)
    | Some (rw_base, cone_store, salt) ->
        (* the shared snapshots are immutable; this domain records its
           discoveries into private handles/deltas, merged by the
           coordinator in input order after every join *)
        let rwh = Mig.Rwcache.fork rw_base in
        let optimize = optimizer_of_spec ~cache:rwh spec in
        let r = Cutoff.run ~salt ~store:cone_store ~optimize ~seed:spec.seed m in
        deltas := (Mig.Rwcache.delta rwh, r.Cutoff.delta);
        let use =
          {
            rw_hits = Mig.Rwcache.hits rwh;
            rw_misses = Mig.Rwcache.misses rwh;
            reused_pos = r.Cutoff.reused;
            reopt_pos = r.Cutoff.reoptimized;
          }
        in
        ( size_in,
          depth_in,
          G.size r.Cutoff.graph,
          G.depth r.Cutoff.graph,
          r.Cutoff.report,
          Some use )
  in
  let ((size_in, depth_in, size_out, depth_out, report, cache), telemetry), time_s
      =
    T.time (fun () -> T.capture (Ctx.stats ctx) ("batch:" ^ item.name) work)
  in
  (* every scratch lease taken under this ctx must be back by now;
     leaks are SAN006 findings attributed to this item *)
  Lsutil.San.drain (Ctx.san ctx);
  ( {
      name = item.name;
      size_in;
      depth_in;
      size_out;
      depth_out;
      report;
      time_s;
      telemetry;
      cache;
    },
    !deltas )

let run ?(jobs = 1) ?(spec = default_spec) ?make_ctx ?cache ?stop items =
  let jobs = min jobs (max 1 (Domain.recommended_domain_count ())) in
  let make_ctx =
    match make_ctx with Some f -> f | None -> fun _ _ -> Ctx.create ()
  in
  (* the pattern table is the library's only top-level [lazy]; force
     it before spawning so no two domains race its first Lazy.force *)
  Mig.Transform.prewarm ();
  let shared =
    Option.map (fun c -> (Cache.rw c, Cache.cones c, salt_of_spec spec)) cache
  in
  let arr = Array.of_list items in
  let slots =
    pmap_opt ?stop ~jobs
      (fun i item -> run_item ~spec ~ctx:(make_ctx i item) ~shared item)
      arr
  in
  let results = List.filter_map Fun.id (Array.to_list slots) in
  (* deltas are merged in input order — first writer wins — so the
     absorbed cache is bit-identical for any [jobs] value; a stopped
     run merges only the deltas of items that actually completed *)
  (match cache with
  | Some c ->
      Cache.absorb_rw c (List.map (fun (_, (rw, _)) -> rw) results);
      Cache.absorb_cones c (List.map (fun (_, (_, cones)) -> cones) results)
  | None -> ());
  List.map fst results

(* ----- reporting ----- *)

module J = Lsutil.Json

let cache_use_to_json u =
  J.Obj
    [
      ("rw_hits", J.Int u.rw_hits);
      ("rw_misses", J.Int u.rw_misses);
      ("reused_pos", J.Int u.reused_pos);
      ("reopt_pos", J.Int u.reopt_pos);
    ]

let outcome_to_json o =
  J.Obj
    ([
       ("name", J.String o.name);
       ("size_in", J.Int o.size_in);
       ("depth_in", J.Int o.depth_in);
       ("size_out", J.Int o.size_out);
       ("depth_out", J.Int o.depth_out);
       ("time_s", J.Float o.time_s);
       ("verified", J.Bool o.report.Engine.verified);
       ("degraded", J.Bool o.report.Engine.degraded);
       ("rollbacks", J.Int o.report.Engine.rollbacks);
       ("report", Engine.report_to_json o.report);
     ]
    @ (match o.cache with
      | Some u -> [ ("cache", cache_use_to_json u) ]
      | None -> [])
    @
    match o.telemetry with
    | Some node -> [ ("telemetry", T.to_json node) ]
    | None -> [])

let to_json ?(interrupted = false) ~jobs outcomes =
  J.Obj
    ([ ("jobs", J.Int jobs) ]
    @ (if interrupted then [ ("interrupted", J.Bool true) ] else [])
    @ [ ("circuits", J.List (List.map outcome_to_json outcomes)) ])

let pp_outcome fmt o =
  Format.fprintf fmt "%-12s %6d -> %-6d depth %3d -> %-3d %8.3fs  %s%s"
    o.name o.size_in o.size_out o.depth_in o.depth_out o.time_s
    (if o.report.Engine.verified then "verified" else "UNVERIFIED")
    (if o.report.Engine.degraded then " [degraded]" else "")
