(** Multi-domain parallel batch driver.

    Runs an independent {!Engine} pipeline on each input circuit,
    fanning the items over a pool of worker domains (capped at
    [Domain.recommended_domain_count ()]).  Every {e item} gets its
    own fresh execution context from [make_ctx], so nothing is shared
    between concurrently running pipelines — the library holds no
    process-global service state (DESIGN.md §13).

    Determinism: each item's result depends only on its own ctx and
    its own input, and results land in per-item slots merged in input
    order.  A batch run is therefore bit-identical in its structural
    fields (sizes, depths, outcomes, telemetry trees) for any [jobs]
    value, including [1]; only wall-clock fields vary. *)

type spec = {
  goal : [ `Size | `Depth | `Activity ];
  effort : int;
  timeout_s : float option;
  max_nodes : int option;
  verify : bool option;  (** [None]: each item's ctx policy decides *)
  seed : int;
}

val default_spec : spec
(** [`Size], effort 2, no budget, ctx-resolved verification, seed 1. *)

val optimizer_of_spec :
  ?cache:Mig.Rwcache.t ->
  ?trace:(string -> unit) ->
  spec ->
  Mig.Graph.t ->
  Mig.Graph.t * Engine.report
(** The spec's optimizer, built once: [Engine.of_goal] passes (the
    move vocabulary, with [cache] handed to every refactoring pass)
    plus the goal's checkpoint ranking, run under the spec's budget,
    seed and verification policy.  [trace] is handed to
    {!Engine.run} (the serve daemon's per-pass telemetry).  The single
    construction point of the paper's Alg. 1/2 scripts: [Flow.mig_opt],
    the batch branches, {!Par} regions, the CLI and the serve daemon
    all optimize through it, so one spec gives one answer everywhere. *)

val salt_of_spec : spec -> string
(** The {!Cutoff} fingerprint salt for this recipe.  Everything that
    changes the optimizer's answer (goal, effort, seed, budgets,
    verification policy) is encoded, so stores written under one
    recipe are never replayed under another. *)

type item = { name : string; build : unit -> Network.Graph.t }
(** [build] runs {e inside} the worker domain, so each worker
    constructs its own private copy of the circuit; networks are never
    shared across domains. *)

type cache_use = {
  rw_hits : int;  (** rewrite-cache lookups answered from the store *)
  rw_misses : int;
  reused_pos : int;  (** POs stitched back from the cone store *)
  reopt_pos : int;  (** POs pushed through the engine *)
}

type outcome = {
  name : string;
  size_in : int;
  depth_in : int;
  size_out : int;
  depth_out : int;
  report : Engine.report;
  time_s : float;  (** wall-clock, the only non-deterministic field *)
  telemetry : Lsutil.Telemetry.node option;
      (** the item's captured span tree when its ctx had stats on *)
  cache : cache_use option;  (** [Some] iff the batch ran with a cache *)
}

val run :
  ?jobs:int ->
  ?spec:spec ->
  ?make_ctx:(int -> item -> Lsutil.Ctx.t) ->
  ?cache:Cache.t ->
  ?stop:bool Atomic.t ->
  item list ->
  outcome list
(** [run ~jobs items] processes all items on [jobs] worker domains
    (clamped to the item count and the hardware parallelism; default
    1) and returns outcomes in input order.  [make_ctx i item] builds
    the private context for item [i] — default a quiet
    [Lsutil.Ctx.create ()]; pass e.g.
    [fun _ _ -> Lsutil.Ctx.default ()] to honour the environment.
    The MIG pattern table is prewarmed before any domain spawns.

    With [?cache], every worker reads the cache's immutable snapshots
    (rewrite entries consulted by the refactoring passes, PO-cone
    fingerprints driving {!Cutoff} early cutoff) and records private
    deltas; the coordinator merges them back in input order after all
    domains join, so the absorbed cache — like the outcomes — is
    bit-identical for any [jobs] value.

    With [?stop] (the CLI's SIGTERM/SIGINT flag), workers stop
    claiming new items once the flag reads [true] — in-flight items
    still finish, so the returned list holds only whole, verified
    outcomes (a prefix-like subset in input order).  Only completed
    items' cache deltas are merged. *)

val pmap : jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** The underlying pool: applies [f] to every element on [jobs]
    domains (taken literally, clamped only to the element count),
    results in input order.  The library's one domain pool: {!Par}
    runs its regions on it, and the differential tests force genuine
    multi-domain execution through it. *)

val outcome_to_json : outcome -> Lsutil.Json.t

(** [~interrupted:true] (a stopped batch) adds an ["interrupted"]
    marker to the report envelope. *)
val to_json : ?interrupted:bool -> jobs:int -> outcome list -> Lsutil.Json.t
val pp_outcome : Format.formatter -> outcome -> unit
