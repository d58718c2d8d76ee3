type entry = {
  mutable flat_s : float;  (** EWMA of per-run flat seconds *)
  mutable per_node_s : float;  (** EWMA of seconds per input node *)
}

type t = (string, entry) Hashtbl.t

let create () : t = Hashtbl.create 16

(* Recent runs dominate: pass cost drifts as the graph shrinks over a
   search, so an equal-weight mean would systematically over-predict
   late moves. *)
let decay = 0.5

(* The split between flat and per-node cost is heuristic: we charge
   half of each observation to a size-independent term and half to a
   size-proportional one.  With observations at a single size the two
   parameterizations are indistinguishable; across sizes the blend
   tracks passes whose cost is dominated by either term without
   needing a regression. *)
let observe (t : t) key ~nodes ~time_s =
  let nodes_f = float_of_int (max 1 nodes) in
  match Hashtbl.find_opt t key with
  | None ->
      Hashtbl.add t key
        { flat_s = time_s /. 2.; per_node_s = time_s /. 2. /. nodes_f }
  | Some e ->
      e.flat_s <- ((1. -. decay) *. e.flat_s) +. (decay *. time_s /. 2.);
      e.per_node_s <-
        ((1. -. decay) *. e.per_node_s)
        +. (decay *. time_s /. 2. /. nodes_f)

let predict (t : t) key ~nodes =
  match Hashtbl.find_opt t key with
  | None -> None
  | Some e ->
      Some (e.flat_s +. (e.per_node_s *. float_of_int (max 1 nodes)))
