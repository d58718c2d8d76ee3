(** Graph-level applications of the Ω/Ψ rules (§IV).

    Every pass rebuilds the MIG from its outputs, applying one family
    of transformations node by node; structural hashing and the Ω.M
    folding built into node creation act as the ever-running
    "majority" simplification.  Passes never change the function
    represented (each rule is an axiom or a derived theorem of the MIG
    algebra); the optimization loops measure metrics and keep or
    discard pass results. *)

type mig := Graph.t

val eliminate : mig -> mig
(** Node elimination (§IV.A): Ω.M left-to-right (via the builders)
    and distributivity Ω.D right-to-left — two fanins that are
    majority nodes sharing two operands collapse,
    [M(M(x,y,u),M(x,y,v),z) = M(x,y,M(u,v,z))].  Applied when it
    cannot increase size (children dying, or inner node shared). *)

val push_up : mig -> mig
(** Critical-variable push-up (§IV.B): per node, picks the
    depth-minimal construction among the plain copy, associativity
    Ω.A, complementary associativity Ψ.C (both free) and
    distributivity Ω.D left-to-right (one extra node), considering the
    deepest fanin as critical. *)

val relevance : ?cone_limit:int -> mig -> mig
(** Reshaping by the relevance rule Ψ.R (§IV.A):
    [M(x,y,z) = M(x,y,z_{x/y'})].  For each node and each fanin
    permutation, when the third fanin's cone re-converges onto [x]
    and the affected sub-cone is at most [cone_limit] nodes (default
    16), the cone is rebuilt with [x] replaced by [y'] — creating the
    shared-operand patterns that {!eliminate} then collapses. *)

val substitution :
  ?max_candidates:int -> on_critical:bool -> mig -> mig
(** Reshaping by the substitution rule Ψ.S (§IV.A/B): replaces a
    reconvergent pair of variables through
    [M(x,y,z) = M(v,M(v',k_{v/u},u),M(v',k_{v/u'},u'))], temporarily
    inflating the MIG.  Applied to at most [max_candidates] nodes
    (default 8), on critical-path nodes only when [on_critical]. *)

val rewrite_patterns :
  ?k:int -> ?max_cuts:int -> ?mode:[ `Depth | `Size ] -> mig -> mig
(** Derived-identity rewriting: small cuts whose function is a
    majority, parity or multiplexer of their leaves collapse to the
    known-optimal MIG structure (e.g. an AOIG carry
    [ab + c(a+b)] becomes the single node [M(a,b,c)], a cascaded
    parity becomes the two-level form of Fig. 2(b)).  Every rewrite is
    a theorem of the Ω system (Theorem 3.6); the pass is how the
    package reaches those derivations in practice, and is what makes
    the AOIG-to-MIG transposition of Fig. 1 automatic.  In [`Depth]
    mode (default) a rewrite must lower the node's level without
    costing more than one node beyond the logic it frees; in [`Size]
    mode it must strictly free nodes. *)

val refactor : ?max_leaves:int -> ?cache:Rwcache.t -> mig -> mig
(** Boolean resynthesis: collapse a reconvergence-driven cone (up to
    [max_leaves] leaves, default 10) to a truth table, re-factor it
    through ISOP + algebraic division, and rebuild it with AND/OR
    majority nodes when that frees more nodes than it costs.  This is
    the "interlacing with other optimization methods" the paper's
    SIV.A anticipates for size recovery; never returns a larger
    graph.

    With [?cache], the ISOP + factoring step consults the NPN-keyed
    {!Rwcache} handle first (and records misses into its delta);
    cached forms are localized through the class transform, so results
    are identical whether an entry was computed this run or served
    from a warm store.  When the graph's context has checking on,
    cache hits are re-validated against the cut function before
    use. *)

val reshape_assoc : mig -> mig
(** Sharing-driven reshaping with Ω.A and Ψ.C (the §IV.A rationale of
    "locally increasing the number of common inputs"): a swap is
    applied only when the rewritten inner node already exists, so a
    private node is replaced by a shared one.  Never increases size
    after sweeping. *)

val prewarm : unit -> unit
(** Force the lazily-built shared pattern table.  Call once from the
    spawning domain before running transforms concurrently in several
    domains ([Flow.Batch] does): a first [Lazy.force] racing across
    domains is unsound in OCaml 5. *)
