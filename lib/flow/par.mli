(** Region-parallel rewriting inside one graph.

    Partitions the PO-reachable cone into fanout-closed regions
    ({!Mig.Partition}), extracts each region as a standalone sub-MIG,
    optimizes the sub-MIGs with the spec's engine script
    ({!Batch.optimizer_of_spec}) on worker domains ({!Batch.pmap}, one
    fresh {!Lsutil.Ctx} each), and commits the results sequentially in
    region index order — the same first-writer/input-order discipline
    [Flow.Batch] uses.  Every stage except the per-region optimize
    runs on the calling domain.

    {b Determinism}: partitioning, extraction, per-region optimization
    (own ctx, spec seed, no wall-clock budget) and the ordered commit
    are all pure functions of the input graph and the spec, so
    [run ~jobs:n] is bit-identical to [run ~jobs:1] for every [n] —
    the job count only decides which domain computes each region.
    Verified by the jobs-differential qcheck suite in [test_par.ml].

    Under [MIG_SAN=1] the cross-domain handoffs are sanitizer-checked:
    the parent graph is published for the read-only parallel phase and
    transferred back before the commit; workers publish their region
    results before joining. *)

type spec = {
  goal : [ `Size | `Depth ];
  effort : int;  (** optimization cycles per region *)
  target : int;  (** region size target, in majority nodes *)
  verify : bool option;
      (** per-pass miter in each region's engine run; [None] defers
          to the graph ctx's check policy *)
  seed : int;
}

val default_spec : spec
(** [`Size], effort 2, target 65536, verify from ctx, seed 1. *)

type region_outcome = {
  index : int;
  nodes_in : int;
  nodes_out : int;
  verified : bool;  (** the region engine's final re-verification *)
  fell_back : bool;
      (** the region's engine run degraded (a pass failed and was
          rolled back, or the result did not verify; an unverified
          region is committed unoptimized) — the run is still correct,
          just less improved there *)
  time_s : float;
  telemetry : Lsutil.Telemetry.node option;
  san_findings : int;
}

type outcome = {
  jobs : int;
  live_majs : int;
  region_target : int;
  regions : region_outcome list;  (** region index order *)
  size_in : int;
  depth_in : int;
  size_out : int;
  depth_out : int;
  equivalent : bool;
      (** final whole-graph miter under the ctx check policy; [true]
          when the check was off *)
}

val run : ?jobs:int -> ?spec:spec -> Mig.Graph.t -> Mig.Graph.t * outcome
(** [run ~jobs ~spec g] optimizes [g] region-parallel on [jobs]
    domains (default 1; taken literally, clamped only to the region
    count — apply {!Domain.recommended_domain_count} yourself for a
    hardware cap).  Returns the rebuilt graph (compacted, POs in
    order, PI names preserved) and the per-region outcome report. *)

val passes : ?jobs:int -> ?spec:spec -> unit -> Engine.pass list
(** The whole region-parallel run wrapped as one {!Engine.pass}, so
    [Engine.run] supplies checkpointing, rollback and final
    re-verification around it — what [mighty opt --par-jobs] uses. *)

val outcome_to_json : outcome -> Lsutil.Json.t
val region_to_json : region_outcome -> Lsutil.Json.t
