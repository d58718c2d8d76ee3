module G = Mig.Graph
module T = Lsutil.Telemetry

type outcome =
  | Completed
  | Timed_out of Lsutil.Budget.reason
  | Failed of string
  | Skipped

let outcome_name = function
  | Completed -> "completed"
  | Timed_out _ -> "timed_out"
  | Failed _ -> "failed"
  | Skipped -> "skipped"

let outcome_detail = function
  | Completed | Skipped -> None
  | Timed_out r -> Some (Lsutil.Budget.reason_name r)
  | Failed msg -> Some msg

type pass_report = {
  pass : string;
  outcome : outcome;
  time_s : float;
  size : int;
  depth : int;
  rolled_back : bool;
}

type report = {
  passes : pass_report list;
  rollbacks : int;
  degraded : bool;
  verified : bool;
}

type pass = { name : string; run : G.t -> G.t }

let pass name run = { name; run }

(* Exceptions that must propagate: the engine cannot meaningfully
   degrade past a broken runtime or a user interrupt. *)
let fatal = function
  | Out_of_memory | Sys.Break -> true
  | _ -> false

let describe = function
  | Stack_overflow -> "stack_overflow"
  | Lsutil.Fault.Injected site -> "fault:" ^ site
  | Check_guard.Failed f -> Format.asprintf "%a" Check_guard.pp_failure f
  | e -> Printexc.to_string e

let protect ~tel ~name f =
  match f () with
  | v -> Ok v
  | exception Lsutil.Budget.Exhausted r ->
      T.count tel "engine.timed_out";
      T.record tel ("engine." ^ name) (T.String (Lsutil.Budget.reason_name r));
      Error (Timed_out r)
  | exception e when not (fatal e) ->
      T.count tel "engine.failed";
      let msg = describe e in
      T.record tel ("engine." ^ name) (T.String msg);
      Error (Failed msg)

(* A candidate is only checkpointed if it survives the checker: lint
   always (cheap, catches structural corruption); a simulation miter
   against the ORIGINAL input when [verify] — comparing against the
   input rather than the previous checkpoint keeps errors from
   compounding across passes.  Runs with the budget suspended (it must
   work after the deadline blew) and the fault plan disarmed (the
   verifier itself must not be faulted). *)
let candidate_ok ~bud ~flt ~verify ~seed ~input cand =
  Lsutil.Budget.suspended bud (fun () ->
      Lsutil.Fault.suspended flt (fun () ->
          match
            Check_report.is_clean (Mig.Check.lint ~subject:"engine" cand)
            && ((not verify) || Mig.Equiv.migs ~seed input cand)
          with
          | ok -> ok
          | exception e when not (fatal e) -> false))

let run ?verify ?timeout_s ?max_nodes ?cost ?size_cap ?(seed = 1)
    ?(trace = fun (_ : string) -> ()) ~passes g =
  let ctx = G.ctx g in
  let tel = Lsutil.Ctx.stats ctx in
  let bud = Lsutil.Ctx.budget ctx in
  let flt = Lsutil.Ctx.fault ctx in
  let protect ~name f = protect ~tel ~name f in
  let candidate_ok ~verify ~seed ~input cand =
    candidate_ok ~bud ~flt ~verify ~seed ~input cand
  in
  let verify =
    match verify with
    | Some v -> v
    | None -> Lsutil.Ctx.check ctx || Lsutil.Fault.enabled flt
  in
  let cost =
    match cost with
    | Some c -> c
    | None -> fun g -> (float_of_int (G.size g), float_of_int (G.depth g))
  in
  let size_cap = match size_cap with Some c -> c | None -> max_int in
  T.span tel "engine" (fun () ->
      (* the input itself is the zeroth checkpoint: whatever happens
         downstream, the caller gets back something at least as good.
         The checkpoint must be trustworthy, so when a fault plan is
         armed the initial cleanup is verified — a corrupt checkpoint
         would doom every pass to rollback *)
      let input = g in
      let initial () =
        let pristine () =
          Lsutil.Budget.suspended bud (fun () ->
              Lsutil.Fault.suspended flt (fun () -> G.cleanup g))
        in
        if not (Lsutil.Fault.enabled flt || Lsutil.Budget.active bud) then
          G.cleanup g
        else
          match protect ~name:"init" (fun () -> G.cleanup g) with
          | Ok b
            when (not (Lsutil.Fault.enabled flt))
                 || candidate_ok ~verify:true ~seed ~input b ->
              b
          | _ -> pristine ()
      in
      let best = ref (initial ()) in
      let best_cost = ref (cost !best) in
      let cur = ref !best in
      let reports = ref [] in
      let rollbacks = ref 0 in
      let finished = ref 0 in
      let record name outcome time_s rolled_back =
        (match outcome_detail outcome with
        | Some d when outcome <> Completed ->
            T.record tel ("outcome:" ^ name) (T.String d)
        | _ -> ());
        reports :=
          { pass = name; outcome; time_s; size = G.size !cur;
            depth = G.depth !cur; rolled_back }
          :: !reports
      in
      let step p =
        if Lsutil.Budget.expired bud then record p.name Skipped 0.0 false
        else begin
          (* the trace hook is observation only: a failure inside it
             must not take the engine down with it *)
          (match protect ~name:"trace" (fun () -> trace p.name) with
          | Ok () | Error _ -> ());
          let res, dt =
            T.time (fun () -> protect ~name:p.name (fun () -> p.run !cur))
          in
          match res with
          | Ok cand
            when G.size cand <= size_cap
                 && candidate_ok ~verify ~seed ~input cand ->
              incr finished;
              cur := cand;
              let c = cost cand in
              if c < !best_cost then begin
                best := cand;
                best_cost := c
              end;
              record p.name Completed dt false
          | Ok _ ->
              (* the pass returned, but its result is oversized or
                 fails verification: discard it and restart the
                 pipeline from the last good checkpoint *)
              incr rollbacks;
              cur := !best;
              record p.name (Failed "verification") dt true
          | Error outcome ->
              incr rollbacks;
              cur := !best;
              record p.name outcome dt true
        end
      in
      let body () = List.iter step passes in
      (match timeout_s, max_nodes with
      | None, None -> body ()
      | _ ->
          (* the engine's own Exhausted (raised between passes by a
             poll inside [cost] etc.) still lands here *)
          match
            Lsutil.Budget.with_budget bud ?deadline_s:timeout_s ?max_nodes body
          with
          | () -> ()
          | exception Lsutil.Budget.Exhausted _ -> ());
      let out = !best in
      (* the returned graph is re-verified unconditionally so [report.
         verified] is meaningful even on all-Completed runs *)
      let verified = candidate_ok ~verify:true ~seed ~input out in
      let fell_back = not verified in
      let out, verified =
        if verified then (out, true)
        else begin
          (* last resort: the input, cleaned, with the budget and
             faults out of the picture *)
          incr rollbacks;
          let fallback =
            Lsutil.Budget.suspended bud (fun () ->
                Lsutil.Fault.suspended flt (fun () -> G.cleanup input))
          in
          (fallback, candidate_ok ~verify:true ~seed ~input fallback)
        end
      in
      let passes = List.rev !reports in
      let degraded =
        List.exists (fun r -> r.outcome <> Completed) passes
        || fell_back || not verified
      in
      if T.enabled tel then begin
        T.record_int tel "engine.rollbacks" !rollbacks;
        T.record_int tel "engine.completed" !finished;
        T.record tel "engine.degraded" (T.Bool degraded)
      end;
      (out, { passes; rollbacks = !rollbacks; degraded; verified }))

(* Goal-directed pipelines: the paper's scripts spelled in the
   [Move] vocabulary — one engine pass per atom, so each transform is
   individually isolated and checkpointed. *)

let of_goal ?effort ?cache goal =
  List.map (fun (name, f) -> pass name f)
    (Move.script_of_goal ?effort ?cache goal)

let cost_of_goal = Move.cost_of_goal

(* ----- reporting ----- *)

module J = Lsutil.Json

let pass_to_json r =
  J.Obj
    ([
       ("pass", J.String r.pass);
       ("outcome", J.String (outcome_name r.outcome));
     ]
    @ (match outcome_detail r.outcome with
      | Some d -> [ ("detail", J.String d) ]
      | None -> [])
    @ [
        ("time_s", J.Float r.time_s);
        ("size", J.Int r.size);
        ("depth", J.Int r.depth);
        ("rolled_back", J.Bool r.rolled_back);
      ])

let report_to_json r =
  J.Obj
    [
      ("passes", J.List (List.map pass_to_json r.passes));
      ("rollbacks", J.Int r.rollbacks);
      ("degraded", J.Bool r.degraded);
      ("verified", J.Bool r.verified);
    ]

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun p ->
      Format.fprintf fmt "%-24s %-10s %8.3fs  size %-6d depth %-4d%s@,"
        p.pass (outcome_name p.outcome) p.time_s p.size p.depth
        (if p.rolled_back then "  [rolled back]" else ""))
    r.passes;
  Format.fprintf fmt "rollbacks: %d, %s, %s@]" r.rollbacks
    (if r.degraded then "degraded" else "clean")
    (if r.verified then "verified" else "UNVERIFIED")
