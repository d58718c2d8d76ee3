(** Early cutoff for incremental re-optimization (DESIGN.md §15).

    Every primary output's input cone is fingerprinted (structure,
    complement edges, PI names, plus a salt encoding the optimization
    recipe).  A persistent {!store} maps fingerprints to serialized
    optimized cones from previous runs; {!run} stitches matching
    outputs straight from the store and pushes only the changed
    outputs through the optimizer, restricted to their cones.  The
    rebuilt graph re-deduplicates shared logic through structural
    hashing.

    The store is shared read-mostly ({!Lsutil.Memo}): domains fork
    private handles and return {!result.delta}s for a deterministic
    merge.  Stored cones are never trusted blindly — a cone that fails
    to rebuild, or (with checking on) a stitched graph that fails the
    simulation miter against the input, causes a full fallback run. *)

type store = Lsutil.Json.t Lsutil.Memo.base

val empty_store : unit -> store
val store_of_json : Lsutil.Json.t -> store
val store_to_json : store -> Lsutil.Json.t
val store_size : store -> int

val section : string
(** Section name (["cones"]) inside the [mighty-cache/1] envelope. *)

val fingerprint : salt:string -> Mig.Graph.t -> Network.Signal.t -> string
(** 128-bit structural fingerprint (32 hex chars) of the signal's
    input cone: node shapes, fanin complement bits, PI names, root
    complement and [salt].  Node ids do not influence it, so it is
    stable across rebuilds of the same structure. *)

type result = {
  graph : Mig.Graph.t;
  report : Engine.report;
      (** the sub-run's report; a pass-less clean report when every
          output was stitched from the store *)
  reused : int;  (** POs stitched from the store *)
  reoptimized : int;  (** POs pushed through the optimizer *)
  fallback : bool;  (** store answers rejected; full run used instead *)
  hits : int;
  misses : int;
  delta : (string * Lsutil.Json.t) list;
      (** new fingerprint → cone entries recorded by this run *)
}

val run :
  salt:string ->
  store:store ->
  optimize:(Mig.Graph.t -> Mig.Graph.t * Engine.report) ->
  ?seed:int ->
  Mig.Graph.t ->
  result
(** [run ~salt ~store ~optimize g] optimizes [g] incrementally.
    [salt] must encode everything that changes the optimizer's answer
    (goal, effort, seed, budget); [optimize] is invoked on the whole
    graph (cold) or on a restricted sub-graph of the changed outputs.
    When the graph's context has checking on, the stitched result is
    miter-verified against [g] ([seed], default 1) and any failure
    falls back to a full run. *)
