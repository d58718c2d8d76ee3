module G = Mig.Graph
module Tr = Mig.Transform

type goal = [ `Size | `Depth | `Activity ]

let goal_name = function
  | `Size -> "size"
  | `Depth -> "depth"
  | `Activity -> "activity"

(* ----- atoms ----- *)

type atom =
  | Rewrite of [ `Depth | `Size ]
  | Eliminate
  | Reshape_assoc
  | Relevance
  | Substitution of bool
  | Refactor
  | Push_up_sat of int

(* Repeated depth push-up to a fixpoint: the pass is cheap and
   monotone, so saturating it inside one engine pass (rather than
   spending checkpoint slots per iteration) matches the paper's
   script. *)
let saturate_depth pass ~max_iter g =
  let bud = Lsutil.Ctx.budget (G.ctx g) in
  let cur = ref g in
  let continue_ = ref true in
  let iter = ref 0 in
  while !continue_ && !iter < max_iter do
    Lsutil.Budget.poll bud;
    incr iter;
    let next = pass !cur in
    if G.depth next < G.depth !cur then cur := next else continue_ := false
  done;
  !cur

let run_atom ?cache atom g =
  match atom with
  | Rewrite mode -> Tr.rewrite_patterns ~mode g
  | Eliminate -> Tr.eliminate g
  | Reshape_assoc -> Tr.reshape_assoc g
  | Relevance -> Tr.relevance g
  | Substitution on_critical -> Tr.substitution ~on_critical g
  | Refactor -> Tr.refactor ?cache g
  | Push_up_sat max_iter -> saturate_depth Tr.push_up ~max_iter g

(* The paper's Alg. 1/2 scripts, decomposed into atoms: the one
   definition every optimize entry point runs (via [Engine.of_goal]).
   Pass names and parameters are part of the engine reports and the
   benchmark records, so changing them changes recorded results. *)
let cycle_atoms : goal -> (string * atom) list = function
  | `Size ->
      [
        ("rewrite", Rewrite `Size);
        ("eliminate", Eliminate);
        ("reshape", Reshape_assoc);
        ("relevance", Relevance);
        ("substitution", Substitution false);
        ("eliminate'", Eliminate);
        ("refactor", Refactor);
        ("eliminate''", Eliminate);
      ]
  | `Depth ->
      [
        ("rewrite", Rewrite `Depth);
        ("push_up", Push_up_sat 8);
        ("relevance", Relevance);
        ("substitution", Substitution true);
        ("push_up'", Push_up_sat 8);
        ("eliminate", Eliminate);
      ]
  | `Activity ->
      [
        ("relevance", Relevance);
        ("eliminate", Eliminate);
        ("substitution", Substitution false);
        ("eliminate'", Eliminate);
      ]

let recovery_atoms : goal -> (string * atom) list = function
  | `Depth ->
      [
        ("recover:rewrite", Rewrite `Size);
        ("recover:eliminate", Eliminate);
        ("recover:refactor", Refactor);
      ]
  | `Size | `Activity -> []

let script_of_goal ?(effort = 2) ?cache goal =
  let atom_pass (name, a) = (name, fun g -> run_atom ?cache a g) in
  let cycle i =
    List.map
      (fun (name, a) ->
        atom_pass (Printf.sprintf "%s#%d" name i, a))
      (cycle_atoms goal)
  in
  List.concat_map cycle (List.init effort (fun i -> i + 1))
  @ List.map atom_pass (recovery_atoms goal)

let cost_of_goal : goal -> G.t -> float * float = function
  | `Size -> fun g -> (float_of_int (G.size g), float_of_int (G.depth g))
  | `Depth -> fun g -> (float_of_int (G.depth g), float_of_int (G.size g))
  | `Activity -> fun g -> (Mig.Activity.total g, float_of_int (G.size g))

(* ----- macro moves ----- *)

type kind =
  | Cycle of goal
  | Resyn of int
  | Bds of { node_limit : int; seed : int }

type t = { name : string; kind : kind }

let opt_cycle goal = { name = "cycle:" ^ goal_name goal; kind = Cycle goal }
let resyn effort = { name = Printf.sprintf "resyn#%d" effort; kind = Resyn effort }

let bds ?(node_limit = 200_000) ~seed () =
  { name = "bds"; kind = Bds { node_limit; seed } }

let apply ?cache t g =
  match t.kind with
  | Cycle goal ->
      List.fold_left
        (fun g (_, a) -> run_atom ?cache a g)
        g
        (cycle_atoms goal @ recovery_atoms goal)
  | Resyn effort ->
      let a = Mig.Convert.to_aig g in
      let a = Aig.Resyn.run ~check:false ~effort a in
      Mig.Convert.of_aig ~ctx:(G.ctx g) a
  | Bds { node_limit; seed } -> (
      let net = Mig.Convert.to_network g in
      match
        Bdd.Decompose.run ~ctx:(G.ctx g) ~node_limit ~seed net
      with
      | Some d -> Mig.Convert.of_network ~ctx:(G.ctx g) d
      | None -> failwith "bds: node limit exceeded")

let cost_key t = "move:" ^ t.name

let vocabulary ?(seed = 1) goal =
  let goals : goal list = [ `Size; `Depth; `Activity ] in
  let cycles =
    opt_cycle goal
    :: List.filter_map
         (fun g -> if g = goal then None else Some (opt_cycle g))
         goals
  in
  cycles @ [ resyn 1; bds ~seed () ]
