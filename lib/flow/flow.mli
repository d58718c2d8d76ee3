(** End-to-end flows reproduced from §V.

    Logic-optimization flows (Table I top) return the optimized
    object's native metrics; synthesis flows (Table I bottom) map the
    optimized logic onto the standard-cell library and return the
    estimated {delay, area, power}.

    Every flow takes an explicit execution context ({!Lsutil.Ctx.t}):
    telemetry, budget, fault plan and check policy all come from it,
    never from process globals, so independent flows may run
    concurrently — one ctx per domain (see {!Batch}). *)

module Engine : module type of Engine
(** The fault-tolerant pass engine ({!Engine.run}): budgets,
    checkpoint/rollback, structured per-pass outcomes. *)

module Move : module type of Move
(** The optimization-move vocabulary: the atoms the fixed scripts are
    spelled in, and the macro moves ({!Move.t}) the orchestrator
    searches over. *)

module Orchestrate : module type of Orchestrate
(** Greedy/beam search over move sequences inside the {!Engine}
    degradation machinery; deterministic for a fixed (seed, beam)
    when no deadline is installed. *)

module Traj : module type of Traj
(** The [mighty-traj/1] QoR trajectory dataset appended by every
    orchestrated search run. *)

module Batch : module type of Batch
(** Multi-domain parallel batch driver: independent {!Engine}
    pipelines over N circuits, one worker domain and one ctx each,
    merged deterministically by input order. *)

module Par : module type of Par
(** Region-parallel rewriting inside one graph: sharded-strash
    sub-MIGs per fanout-closed region ({!Mig.Partition}), one worker
    domain and one ctx per region, committed deterministically in
    region order — bit-identical at any job count. *)

module Cutoff : module type of Cutoff
(** Early cutoff for incremental re-optimization: PO-cone
    fingerprints, stored optimized cones, restricted re-runs. *)

module Cache : module type of Cache
(** The persistent [mighty-cache/1] store bundle (rewrite entries +
    cone fingerprints): load, absorb deltas, save. *)

type opt_result = {
  size : int;
  depth : int;
  activity : float;
  time : float;
      (** Transform wall-clock in seconds — the guard (when enabled)
          runs and is timed outside this, so Table-I runtimes are
          comparable whether or not the ctx checks. *)
  guard_time : float;
      (** Seconds spent in [verify_pre]/[verify_post] around the
          transform; [0.] when the guard is disabled. *)
}

type syn_result = {
  area : float;
  delay : float;
  power : float;
  time : float;  (** seconds *)
}

(** {1 Logic optimization (Table I top)} *)

val mig_opt :
  ?check:bool ->
  ?effort:int ->
  ?cache:Mig.Rwcache.t ->
  Lsutil.Ctx.t ->
  Network.Graph.t ->
  Mig.Graph.t * opt_result
(** MIGhty: the depth goal's engine script (Alg. 2 interlaced with
    size recovery, the flow of §V.A.1) on the flattened input, built by
    {!Batch.optimizer_of_spec} — the same optimizer [mighty opt],
    [batch] and [serve] run, so one effort gives one answer on every
    entry point.  [effort] defaults to the spec default (2).  On every
    flow, [check] runs the underlying optimization under its transform
    guard ([Mig.Check] / [Aig.Check] pre/post lint plus a simulation
    miter); it defaults to the context's check policy
    ([Lsutil.Ctx.check]).  [cache] is an armed rewrite-cache handle for
    the refactoring steps (see {!Mig.Transform.refactor}).

    [mig_opt]'s guard replaces the engine's per-pass miters, and under
    it a [degraded] engine run (a rolled-back pass) raises [Failure].  Its [time] covers the whole engine run,
    including the engine's per-pass lint and final re-verification. *)

val aig_opt :
  ?check:bool ->
  ?effort:int ->
  Lsutil.Ctx.t ->
  Network.Graph.t ->
  Aig.Graph.t * opt_result
(** ABC stand-in: the resyn2-style script. *)

val bds_opt :
  ?node_limit:int ->
  seed:int ->
  Lsutil.Ctx.t ->
  Network.Graph.t ->
  (Network.Graph.t * opt_result) option
(** BDS stand-in: BDD construction with order search, then
    decomposition.  [None] models the "N.A." rows of Table I (BDD
    blow-up). *)

(** {1 Synthesis (Table I bottom)} *)

val mig_synth :
  ?check:bool -> ?effort:int -> Lsutil.Ctx.t -> Network.Graph.t -> syn_result
(** MIG optimization + technology mapping on the full library. *)

val aig_synth :
  ?check:bool -> ?effort:int -> Lsutil.Ctx.t -> Network.Graph.t -> syn_result
(** AIG optimization + the same mapper and library. *)

val cst_synth :
  ?check:bool -> ?effort:int -> Lsutil.Ctx.t -> Network.Graph.t -> syn_result
(** Commercial-synthesis-tool proxy: area-oriented AIG script and a
    library without MAJ-3/MIN-3 cells (see DESIGN.md §2). *)
