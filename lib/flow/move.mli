(** First-class optimization moves: the vocabulary the flow layer is
    built from.

    Two granularities share one construction point:

    {ul
    {- {b Atoms} — the individual transforms of the paper's Alg. 1/2
       scripts ([rewrite], [eliminate], [push_up], …).
       {!script_of_goal} unrolls a goal into its atom-level pass list
       (names, order and transform parameters), which is what
       {!Engine.of_goal} returns: this is the one definition of the
       paper's scripts that every optimize entry point runs.}
    {- {b Macro moves} ({!t}) — whole optimization rounds (one goal
       cycle, an AIG-resyn round-trip, a BDS round-trip), the unit
       {!Orchestrate} searches over.  A goal cycle folds that goal's
       {!cycle_atoms} and {!recovery_atoms}; the round-trips wrap
       [Aig.Resyn] and [Bdd.Decompose] with their effort parameters.
       Each move's predicted cost comes from an {!Lsutil.Costmodel}
       keyed by {!cost_key}.}}

    Moves are pure graph-to-graph functions; budget polls, fault
    sites and verification all live in the transforms they wrap and
    in the {!Engine} machinery that runs them. *)

module G := Mig.Graph

type goal = [ `Size | `Depth | `Activity ]

val goal_name : goal -> string

(** {1 Atoms: the fixed-script decomposition} *)

type atom =
  | Rewrite of [ `Depth | `Size ]  (** pattern rewriting, by mode *)
  | Eliminate
  | Reshape_assoc
  | Relevance
  | Substitution of bool  (** [on_critical] *)
  | Refactor  (** Boolean resynthesis; consults the rewrite cache *)
  | Push_up_sat of int  (** depth push-up saturated, max iterations *)

val run_atom : ?cache:Mig.Rwcache.t -> atom -> G.t -> G.t

val cycle_atoms : goal -> (string * atom) list
(** One cycle of the goal's paper script, in order, with the pass
    base-names (["rewrite"], ["eliminate'"], …). *)

val recovery_atoms : goal -> (string * atom) list
(** The script's size-recovery tail (non-empty only for [`Depth]),
    with the ["recover:*"] names. *)

val script_of_goal :
  ?effort:int -> ?cache:Mig.Rwcache.t -> goal -> (string * (G.t -> G.t)) list
(** [effort] (default 2) cycles of {!cycle_atoms} — pass names
    suffixed ["#1"], ["#2"], … — followed by {!recovery_atoms}.
    The pipeline [Engine.of_goal] builds. *)

val cost_of_goal : goal -> G.t -> float * float
(** The goal's lexicographic score: primary then tie-break metric
    ([`Size]: size then depth; [`Depth]: depth then size;
    [`Activity]: switching activity then size). *)

(** {1 Macro moves: the search vocabulary} *)

type kind =
  | Cycle of goal  (** one full cycle (+ recovery tail) of the goal *)
  | Resyn of int  (** MIG → AIG, [Aig.Resyn.run ~effort], → MIG *)
  | Bds of { node_limit : int; seed : int }
      (** MIG → network → {!Bdd.Decompose.run} → MIG; raises
          [Failure] when decomposition exceeds [node_limit] (the
          engine degrades that to a rolled-back pass) *)

type t = { name : string; kind : kind }

val resyn : int -> t
(** Named ["resyn#<effort>"]. *)

val bds : ?node_limit:int -> seed:int -> unit -> t
(** Named ["bds"]; [node_limit] defaults to 200_000 — deliberately
    modest, a search probes BDS rather than committing to it. *)

val apply : ?cache:Mig.Rwcache.t -> t -> G.t -> G.t
(** Run the move.  May raise (budget exhaustion, injected faults, BDS
    blowup); callers run it under {!Engine.run}, which checkpoints
    and degrades. *)

val cost_key : t -> string
(** The {!Lsutil.Costmodel} key, ["move:<name>"]. *)

val vocabulary : ?seed:int -> goal -> t list
(** The search vocabulary for a goal: the goal's own cycle (named
    ["cycle:<goal>"]) first
    (greedy search tries it before anything else), then the remaining
    goal cycles, then the AIG-resyn and BDS round-trips.  [seed]
    (default 1) parameterizes the BDS variable-order search, so a
    fixed seed gives a fixed vocabulary and a deterministic search. *)
