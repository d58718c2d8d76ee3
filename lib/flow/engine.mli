(** Fault-tolerant pass engine: budgets, checkpoints, rollback.

    The engine runs a declarative list of MIG passes under a shared
    resource budget.  Each pass is isolated: any failure — deadline or
    node-cap exhaustion ({!Lsutil.Budget.Exhausted}), a stack
    overflow, a guard violation, an injected fault — is caught,
    recorded as a structured {!outcome}, and answered by rolling the
    working graph back to the last verified checkpoint.  The engine
    itself never raises (beyond [Out_of_memory]/[Sys.Break]): it
    always returns a valid, possibly degraded, best-so-far graph plus
    a {!report} of what happened.

    Checkpoint invariants (see DESIGN.md §12):
    - a pass result is checkpointed only if it lints clean, its size
      is within [size_cap], and — when verification is on — it is
      simulation-equivalent to the {e original} input;
    - the best checkpoint is monotone under [cost]: it only ever
      improves;
    - verification runs with the budget suspended and the fault plan
      disarmed, so it works after the deadline and cannot itself be
      faulted. *)

type outcome =
  | Completed
  | Timed_out of Lsutil.Budget.reason
  | Failed of string  (** exception description, or ["verification"] *)
  | Skipped  (** the budget was already blown when the pass came up *)

type pass_report = {
  pass : string;
  outcome : outcome;
  time_s : float;
  size : int;  (** of the working graph after this pass settled *)
  depth : int;
  rolled_back : bool;  (** result discarded, checkpoint restored *)
}

type report = {
  passes : pass_report list;
  rollbacks : int;
  degraded : bool;
      (** some pass did not complete, the final checkpoint failed
          re-verification (the input was returned), or unverified *)
  verified : bool;  (** final graph lints clean and matches the input *)
}

type pass

val pass : string -> (Mig.Graph.t -> Mig.Graph.t) -> pass

val run :
  ?verify:bool ->
  ?timeout_s:float ->
  ?max_nodes:int ->
  ?cost:(Mig.Graph.t -> float * float) ->
  ?size_cap:int ->
  ?seed:int ->
  ?trace:(string -> unit) ->
  passes:pass list ->
  Mig.Graph.t ->
  Mig.Graph.t * report
(** [run ~passes g] pushes [g] through [passes] under a
    [Budget.with_budget ?deadline_s:timeout_s ?max_nodes] scope of the
    graph's context budget ([Lsutil.Ctx.budget (Mig.Graph.ctx g)]) —
    the engine owns no global state and is reentrant across domains as
    long as each domain works on graphs of its own context.

    [verify] adds the simulation miter against the input to every
    checkpoint decision; it defaults to the graph's context check
    policy ([Lsutil.Ctx.check]) or whenever the context's fault plan
    is armed.  [cost] ranks checkpoints
    (lexicographic on the float pair; default [(size, depth)]).
    Candidates larger than [size_cap] are never checkpointed (default:
    unlimited).  [seed] drives the miter simulation (default 1).
    [trace] is called with each pass name just before the pass runs
    (the serve daemon's streaming telemetry); it is isolated like a
    pass — an exception inside it cannot disturb the engine.

    The returned graph is re-verified unconditionally; if the final
    checkpoint fails (injected corruption, or an unsound pass accepted
    while [verify] was off), the engine falls back to [cleanup] of the
    input and the report reads [degraded] with one more rollback.

    Every rollback and every failed verification sets [degraded], so a
    run that is not [degraded] returned the passes' own work.
    Soundness checks of the passes ([mighty check --guard], the guarded
    Table-I flow, the tests) must demand that: the engine otherwise
    hides an unsound pass behind an equivalent graph. *)

val protect :
  tel:Lsutil.Telemetry.t -> name:string -> (unit -> 'a) -> ('a, outcome) result
(** The engine's exception isolation, exposed for callers that wrap
    non-MIG work (e.g. the technology mapper in the chaos harness):
    [Error] on budget exhaustion and non-fatal exceptions,
    [Out_of_memory]/[Sys.Break] propagate.  Outcome telemetry lands in
    [tel]. *)

val of_goal :
  ?effort:int ->
  ?cache:Mig.Rwcache.t ->
  [ `Size | `Depth | `Activity ] ->
  pass list
(** The paper's optimization scripts ({!Move.script_of_goal}) as
    individually-checkpointed engine passes, [effort] (default 2)
    cycles plus the goal's recovery phase.  [cache] is handed to every
    refactoring pass (see {!Mig.Transform.refactor}).  Callers normally
    go through [Batch.optimizer_of_spec], which pairs these passes with
    {!cost_of_goal}. *)

val cost_of_goal :
  [ `Size | `Depth | `Activity ] -> Mig.Graph.t -> float * float
(** The checkpoint ranking matching each goal: (size, depth),
    (depth, size), (activity, size). *)

val outcome_name : outcome -> string
(** ["completed"] / ["timed_out"] / ["failed"] / ["skipped"]. *)

val report_to_json : report -> Lsutil.Json.t
val pp_report : Format.formatter -> report -> unit
