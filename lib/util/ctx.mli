(** The execution context: every cross-cutting service in one
    explicit record.

    A ctx bundles the {!Telemetry} sink, {!Budget} handle, {!Fault}
    handle, check policy, RNG, and per-context scratch arenas that the
    optimization layers consume.  Nothing in the library reaches for a
    process-global: a graph created under a ctx carries it, passes
    derive it from their graph, and entrypoints build one from the
    environment ({!default}).  That makes the whole package reentrant
    — [Flow.Batch] runs one ctx per domain.

    {2 Ownership and concurrency contract (DESIGN.md §13)}

    A ctx (and everything it owns) is single-owner mutable state: it
    must only ever be touched by one domain at a time.  Sharing a ctx
    — or two graphs carrying the same ctx — across concurrently
    running domains is a data race.  Create one ctx per worker;
    immutable results (graphs are safe to {e read} once their owning
    worker has joined, telemetry {!Telemetry.node} trees, reports) can
    cross domains freely.  Under [MIG_SAN=1] (or [~san:true]) the
    contract is enforced: every arena-backed structure created under
    the ctx registers with its {!San} handle, and a cross-domain
    access without {!San.publish}/{!San.transfer} is a structured
    [SAN00x] finding. *)

type t

val create :
  ?stats:bool ->
  ?check:bool ->
  ?budget:float option * int option ->
  ?fault:Fault.spec ->
  ?seed:int ->
  ?san:bool ->
  ?san_mode:San.mode ->
  unit ->
  t
(** [create ()] is a quiet context: telemetry off, no budget, no
    fault plan, checks off, sanitizer off, seed 1.  [~stats] enables
    the telemetry sink; [~check] makes guarded passes verify by
    default; [~budget: (deadline_s, max_nodes)] installs a root budget
    for the ctx's lifetime; [~fault] arms a fault plan; [~san:true]
    arms the domain-ownership sanitizer ([~san_mode] defaults to
    {!San.Raise}). *)

val default : unit -> t
(** A fresh context configured from the environment ({!Env.load}):
    what the CLI and benches use so [MIG_STATS]/[MIG_CHECK]/
    [MIG_FAULT] keep working. *)

val stats : t -> Telemetry.t
val budget : t -> Budget.t
val fault : t -> Fault.t

val san : t -> San.t
(** The ctx's sanitizer handle.  Structures created under the ctx
    register here; [San.findings (Ctx.san ctx)] after a run is the
    cleanliness assertion the differential tests use. *)

val check : t -> bool
(** The default for the [?check] flag of guarded passes. *)

val set_check : t -> bool -> unit
val rng : t -> Rng.t

val with_scratch : t -> int -> (int array -> 'a) -> 'a
(** [with_scratch ctx n k] runs [k buf] with a pooled scratch buffer
    of at least [n] slots, filled with [-1] up to [n].  Buffers return
    to the ctx pool on exit (also on exceptions); nested calls get
    distinct buffers, so rebuilds may nest freely. *)

val scratch_allocs : t -> int
(** Fresh scratch arrays allocated so far — a steady-state rebuild
    loop should stop incrementing this once the pool is warm
    (regression hook for the arena-reuse tests). *)
