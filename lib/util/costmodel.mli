(** Telemetry-backed pass cost model: EWMA run-time predictor.

    A {!t} is an explicit table owned by whoever drives a search (one
    per orchestration run — never shared across domains, DESIGN.md
    §13).  It learns, per move key (e.g. ["move:size"]), an
    exponentially weighted estimate of the pass's flat overhead and
    its per-node cost, from the observations fed to {!observe}.

    The predictor is deliberately crude — two EWMA terms, no variance
    — because its only consumer is budget gating: "does this move
    plausibly fit in the seconds remaining?"  An over-estimate wastes
    a little budget headroom; an under-estimate merely lets the
    {!Budget} deadline cut the move off, which the engine already
    survives.  Predictions are a pure function of the observation
    sequence, so a deterministic search stays deterministic. *)

type t

val create : unit -> t
(** An empty model: {!predict} answers [None] for every key. *)

val observe : t -> string -> nodes:int -> time_s:float -> unit
(** [observe t key ~nodes ~time_s] folds one completed run of move
    [key] on a [nodes]-node graph taking [time_s] seconds into the
    model (EWMA, decay 0.5 — recent runs dominate, matching how pass
    cost drifts as the graph shrinks). *)

val predict : t -> string -> nodes:int -> float option
(** Predicted wall-clock seconds for running [key] on a [nodes]-node
    graph; [None] until at least one observation for [key]. *)
