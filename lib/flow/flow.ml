module T = Lsutil.Telemetry
module Ctx = Lsutil.Ctx
module Engine = Engine
module Move = Move
module Orchestrate = Orchestrate
module Traj = Traj
module Batch = Batch
module Par = Par
module Cutoff = Cutoff
module Cache = Cache

type opt_result = {
  size : int;
  depth : int;
  activity : float;
  time : float;
  guard_time : float;
}

type syn_result = { area : float; delay : float; power : float; time : float }

let timed = T.time

(* All flows receive the same flattened AND/OR/INV input, as in the
   paper's methodology (§V.A.1). *)
let flatten ctx net =
  T.span (Ctx.stats ctx) "flow:flatten" (fun () ->
      Network.Graph.flatten_aoig net)

(* Run [pass] with the transform guard around — not inside — the
   timed region: the reported [time] is the pass alone, and the guard's
   lint + simulation-miter overhead lands in [guard_time] (and in the
   [guard:*] telemetry spans) instead of the Table-I runtime column.
   For [mig_opt] the pass is a whole engine run, so [time] includes the
   engine's per-pass lint and final re-verification, which every
   engine entry point pays. *)
let guarded_timed ~enabled ~verify_pre ~verify_post pass g =
  if not enabled then begin
    let out, t = timed (fun () -> pass g) in
    (out, t, 0.0)
  end
  else begin
    let (), t_pre = timed (fun () -> verify_pre g) in
    let out, t = timed (fun () -> pass g) in
    let (), t_post = timed (fun () -> verify_post g out) in
    (out, t, t_pre +. t_post)
  end

let mig_opt ?check ?(effort = Batch.default_spec.effort) ?cache ctx net =
  T.span (Ctx.stats ctx) "flow:mig_opt" (fun () ->
      let net = flatten ctx net in
      let m =
        T.span (Ctx.stats ctx) "flow:of_network" (fun () ->
            Mig.Convert.of_network ~ctx net)
      in
      let guard = Check.Env.resolve ~default:(Ctx.check ctx) check in
      (* the guard's miter stands in for the engine's per-pass miters;
         it cannot tell a checkpoint the engine substituted for a
         discarded pass from the script's own result, so under the
         guard a rollback is an error too *)
      let optimize m =
        let out, r =
          Batch.optimizer_of_spec ?cache
            { Batch.default_spec with goal = `Depth; effort; verify = Some false }
            m
        in
        if guard && r.Engine.degraded then
          failwith
            (Format.asprintf "mig_opt: the engine rolled back a pass@.%a"
               Engine.pp_report r);
        out
      in
      let opt, time, guard_time =
        guarded_timed ~enabled:guard
          ~verify_pre:(Mig.Check.verify_pre ~name:"mig_opt")
          ~verify_post:(Mig.Check.verify_post ~name:"mig_opt")
          optimize m
      in
      ( opt,
        {
          size = Mig.Graph.size opt;
          depth = Mig.Graph.depth opt;
          activity = Mig.Activity.total opt;
          time;
          guard_time;
        } ))

let aig_opt ?check ?(effort = 2) ctx net =
  T.span (Ctx.stats ctx) "flow:aig_opt" (fun () ->
      let net = flatten ctx net in
      let a =
        T.span (Ctx.stats ctx) "flow:of_network" (fun () ->
            Aig.Convert.of_network ~ctx net)
      in
      let opt, time, guard_time =
        guarded_timed
          ~enabled:(Check.Env.resolve ~default:(Ctx.check ctx) check)
          ~verify_pre:(Aig.Check.verify_pre ~name:"resyn")
          ~verify_post:(Aig.Check.verify_post ~name:"resyn")
          (Aig.Resyn.run ~check:false ~effort)
          a
      in
      let as_net = Aig.Convert.to_network opt in
      ( opt,
        {
          size = Aig.Graph.size opt;
          depth = Aig.Graph.depth opt;
          activity = Network.Metrics.activity as_net;
          time;
          guard_time;
        } ))

let bds_opt ?(node_limit = 1_500_000) ~seed ctx net =
  let tel = Ctx.stats ctx in
  T.span tel "flow:bds_opt" (fun () ->
      let net = flatten ctx net in
      let result, time =
        timed (fun () ->
            (* [Decompose.run] already degrades blowups and budget
               exhaustion to [None]; injected faults out of the BDD
               builder get the same treatment here, so this flow never
               raises on its own behalf *)
            match Bdd.Decompose.run ~ctx ~node_limit ~seed net with
            | r -> r
            | exception Lsutil.Fault.Injected site ->
                T.count tel "bdd.blowup";
                T.record tel "outcome" (T.String "failed");
                T.record tel "fault" (T.String site);
                None
            | exception Lsutil.Budget.Exhausted reason ->
                T.count tel "bdd.blowup";
                T.record tel "outcome" (T.String "timed_out");
                T.record tel "budget"
                  (T.String (Lsutil.Budget.reason_name reason));
                None)
      in
      let result =
        match result with
        | Some d when Lsutil.Fault.enabled (Ctx.fault ctx) ->
            (* a [Corrupt] fault in the BDD builder yields a valid but
               functionally wrong BDD; only a miter can tell, so
               self-verify whenever a fault plan is armed *)
            let ok =
              Lsutil.Budget.suspended (Ctx.budget ctx) (fun () ->
                  Lsutil.Fault.suspended (Ctx.fault ctx) (fun () ->
                      Network.Simulate.equivalent ~seed net d))
            in
            if ok then Some d
            else begin
              T.count tel "bdd.corrupt";
              T.record tel "outcome" (T.String "failed");
              None
            end
        | r -> r
      in
      Option.map
        (fun d ->
          ( d,
            {
              size = Network.Graph.size d;
              depth = Network.Metrics.depth d;
              activity = Network.Metrics.activity d;
              time;
              guard_time = 0.0;
            } ))
        result)

(* Synthesis runtimes are optimization + mapping; guard overhead is
   excluded the same way as in the optimization flows. *)

let map_timed ?lib ctx net =
  T.span (Ctx.stats ctx) "flow:map" (fun () ->
      timed (fun () -> Tech.Mapper.map_network ~ctx ?lib net))

let mig_synth ?check ?effort ctx net =
  T.span (Ctx.stats ctx) "flow:mig_synth" (fun () ->
      let opt, r = mig_opt ?check ?effort ctx net in
      let mapped, t_map = map_timed ctx (Mig.Convert.to_network opt) in
      {
        area = mapped.Tech.Mapper.area;
        delay = mapped.Tech.Mapper.delay;
        power = mapped.Tech.Mapper.power;
        time = r.time +. t_map;
      })

let aig_synth ?check ?effort ctx net =
  T.span (Ctx.stats ctx) "flow:aig_synth" (fun () ->
      let opt, r = aig_opt ?check ?effort ctx net in
      let mapped, t_map = map_timed ctx (Aig.Convert.to_network opt) in
      {
        area = mapped.Tech.Mapper.area;
        delay = mapped.Tech.Mapper.delay;
        power = mapped.Tech.Mapper.power;
        time = r.time +. t_map;
      })

let cst_synth ?check ?(effort = 2) ctx net =
  T.span (Ctx.stats ctx) "flow:cst_synth" (fun () ->
      let a = Aig.Convert.of_network ~ctx (flatten ctx net) in
      let opt, t_opt, _guard =
        guarded_timed
          ~enabled:(Check.Env.resolve ~default:(Ctx.check ctx) check)
          ~verify_pre:(Aig.Check.verify_pre ~name:"resyn:size_only")
          ~verify_post:(Aig.Check.verify_post ~name:"resyn:size_only")
          (fun a -> Aig.Balance.run (Aig.Resyn.size_only ~check:false ~effort a))
          a
      in
      let mapped, t_map =
        map_timed ~lib:Tech.Cells.no_majority ctx (Aig.Convert.to_network opt)
      in
      {
        area = mapped.Tech.Mapper.area;
        delay = mapped.Tech.Mapper.delay;
        power = mapped.Tech.Mapper.power;
        time = t_opt +. t_map;
      })
