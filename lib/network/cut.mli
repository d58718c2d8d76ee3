(** K-feasible cuts over any fanin DAG.

    One definition of cut enumeration and the cut utilities, shared by
    the MIG passes ({!Mig.Cut}), the AIG resyn baseline ({!Aig.Cut})
    and the technology mapper ({!Tech.Netcut}).  Each instance supplies
    only its {!DAG} adapter. *)

module type DAG = sig
  type t

  val num_nodes : t -> int
  (** Node ids are [0 .. num_nodes - 1], in topological order.  Node 0
      is the constant 0; every other node is a primary input or a
      gate. *)

  val is_pi : t -> int -> bool
  val is_gate : t -> int -> bool

  val fanins : t -> int -> Signal.t array
  (** Fanin signals of a gate; at most three. *)

  val eval : t -> int -> Truthtable.t array -> Truthtable.t
  (** [eval g id tts] is gate [id]'s function applied to the tables
      of its (already complemented) fanin signals, in fanin order. *)

  val live : t -> int -> bool
  (** [live g] is applied once per enumeration; gates it rejects get
      no cuts. *)

  val poll : t -> unit -> unit
  (** [poll g] is applied once per enumeration and called before each
      node, so a budget can interrupt it. *)

  val min_vars : int
  (** Cut functions are padded to at least this many variables. *)
end

module type S = sig
  type graph

  type t = int array
  (** A cut: sorted array of leaf node ids. *)

  val enumerate : k:int -> max_cuts:int -> graph -> t list array
  (** [enumerate ~k ~max_cuts g] computes, per node, up to [max_cuts]
      cuts with at most [k] leaves each: the trivial cut [{node}]
      first, then the smallest merged cuts.  Constants never appear as
      leaves; the constant's only cut is the empty one. *)

  val cut_function : graph -> int -> t -> Truthtable.t
  (** [cut_function g root cut] is the function of [root] over the cut
      leaves; leaf [cut.(i)] becomes variable [i], over
      [max min_vars (Array.length cut)] variables.  Raises
      [Invalid_argument] when the cut does not separate [root] from
      the primary inputs. *)

  val cone : graph -> int -> t -> int list
  (** Gates strictly between the leaves and the root, root included,
      in no particular order. *)

  val mffc_size : graph -> fanout:int array -> int -> t -> int
  (** Number of cone gates that would become dangling if [root] were
      re-expressed directly on the leaves (the maximal fanout-free
      cone with respect to the cut). *)

  val reconvergent_cut :
    graph -> fanout:int array -> max_leaves:int -> int -> t
  (** Reconvergence-driven leaf set of [root] for refactoring: start
      from the root's non-constant fanins and repeatedly replace one
      gate leaf by its fanins, choosing single-fanout leaves first
      (their logic is exclusive to the cone), then the smallest
      resulting set, then the smallest leaf id, until no replacement
      fits in [max_leaves] leaves. *)
end

module Make (D : DAG) : S with type graph = D.t
