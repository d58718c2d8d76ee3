module S = Network.Signal
module G = Graph
module Tel = Lsutil.Telemetry

(* every pass derives its services from the graph's own context *)
let tel g = Lsutil.Ctx.stats (G.ctx g)
let bud g = Lsutil.Ctx.budget (G.ctx g)
let flt g = Lsutil.Ctx.fault (G.ctx g)

(* ----- shared helpers ----- *)

(* Memoized level function over a (growing) fresh graph: a flat int
   array indexed by node id, -1 for "not computed", doubled as the
   graph outgrows it.  No hashing, no boxing. *)
let make_level_fn fresh =
  let memo = ref (Array.make 1024 (-1)) in
  let ensure id =
    let m = !memo in
    let n = Array.length m in
    if id >= n then begin
      let m' = Array.make (max (2 * n) (id + 1)) (-1) in
      Array.blit m 0 m' 0 n;
      memo := m'
    end
  in
  (* explicit-stack post-order: level queries reach arbitrarily deep
     into the fresh graph, so the call stack is not an option *)
  let stack = Lsutil.Istack.create () in
  let node_level root =
    ensure root;
    if !memo.(root) >= 0 then !memo.(root)
    else begin
      Lsutil.Istack.push stack root;
      while not (Lsutil.Istack.is_empty stack) do
        let id = Lsutil.Istack.top stack in
        ensure id;
        if !memo.(id) >= 0 then Lsutil.Istack.pop stack
        else if not (G.is_maj fresh id) then begin
          !memo.(id) <- 0;
          Lsutil.Istack.pop stack
        end
        else begin
          let fs = G.fanins fresh id in
          let na = S.node fs.(0) and nb = S.node fs.(1) and nc = S.node fs.(2) in
          ensure na;
          ensure nb;
          ensure nc;
          let m = !memo in
          if m.(na) < 0 then Lsutil.Istack.push stack na
          else if m.(nb) < 0 then Lsutil.Istack.push stack nb
          else if m.(nc) < 0 then Lsutil.Istack.push stack nc
          else begin
            m.(id) <- 1 + max (max m.(na) m.(nb)) m.(nc);
            Lsutil.Istack.pop stack
          end
        end
      done;
      !memo.(root)
    end
  in
  fun s -> node_level (S.node s)

(* Multiset intersection of two 3-signal views.  Returns
   [Some (c1, c2, u, v)] when exactly two signals are common: [c1,c2]
   common, [u] left-over of [fa], [v] left-over of [fb]. *)
let common2 fa fb =
  let used = Array.make 3 false in
  let commons = ref [] and rest_a = ref [] in
  Array.iter
    (fun sa ->
      let matched = ref false in
      Array.iteri
        (fun j sb ->
          if (not !matched) && (not used.(j)) && S.equal sa sb then begin
            used.(j) <- true;
            matched := true;
            commons := sa :: !commons
          end)
        fb;
      if not !matched then rest_a := sa :: !rest_a)
    fa;
  match (!commons, !rest_a) with
  | [ c1; c2 ], [ u ] ->
      let v = ref None in
      Array.iteri (fun j sb -> if not used.(j) then v := Some sb) fb;
      Option.map (fun v -> (c1, c2, u, v)) !v
  | _ -> None

(* Rebuilds borrow their old-id -> fresh-signal scratch from the
   graph's context ([Ctx.with_scratch]): every pass needs a
   [num_nodes]-sized map, and allocating it afresh sixteen times per
   optimization script is pure GC churn.  The ctx pool hands nested
   rebuilds distinct buffers, so nesting is correct by construction
   (the old global arena had a [arena_busy] flag that silently fell
   back to a fresh unpooled array). *)

(* Demand-driven rebuild skeleton.  [init fresh] may set up
   per-rebuild state and returns the node constructor, which receives
   a [value] function resolving old signals to fresh ones, the old
   node id and its old fanins, and must return the fresh signal for
   the node's regular polarity.

   Speculative nodes a constructor built and then discarded stay
   allocated in [fresh] but dead; the trailing {!G.compact} drops them
   with a cheap renumbering pass instead of the full {!G.cleanup}
   rebuild (a second maj-by-maj reconstruction) each pass used to end
   with.  Compaction also keeps results bit-identical to the old
   cleanup pipeline: stored fanin triples sort by node id, so passes
   that pick the first profitable rotation are sensitive to the
   numbering, and skipping the renumbering entirely was observed to
   drift optimization results on big benchmarks. *)
(* Raised (no-trace) by [value] when a constructor demands a node that
   is not built yet; the driver pushes that node and retries.  See
   [rebuild_with]. *)
exception Need of int

let rebuild_with g init =
  let ctx = G.ctx g in
  let fresh = G.create ~ctx ~shards:(G.strash_shards g) () in
  (* the rebuilt graph rarely exceeds the source; pre-sizing its node
     arrays and strash avoids growth rehashes on every pass *)
  G.reserve fresh (G.num_nodes g);
  let construct = init fresh in
  let budget = Lsutil.Ctx.budget ctx in
  Lsutil.Ctx.with_scratch ctx (G.num_nodes g) @@ fun map ->
  map.(0) <- (G.const0 fresh : S.t :> int);
  List.iter
    (fun id -> map.(id) <- (G.add_pi fresh (G.pi_name g id) : S.t :> int))
    (G.pis g);
  let value s =
    let v = map.(S.node s) in
    if v >= 0 then S.xor_complement (S.unsafe_of_int v) (S.is_complement s)
    else raise_notrace (Need (S.node s))
  in
  (* Stack-safe retry driver.  The old version recursed through
     [build]/[value], so a chain-shaped graph overflowed the call
     stack.  Here [value] aborts the constructor with [Need n] when it
     hits an unbuilt node; the driver builds [n] (and, recursively,
     whatever it needs — ids only ever decrease, so this terminates)
     and re-runs the constructor.  Re-runs are observationally
     identical to the single recursive run: the constructor re-issues
     the same [G.maj] calls, which now strash-hit and return the very
     same signals, and its [value] demands fire in the same
     (compiler-fixed) evaluation order — so node-creation order, and
     with it every numbering-sensitive decision downstream, is
     unchanged.  Constructors must only keep side effects that are
     idempotent under retry (telemetry counts go after the last
     [value] call). *)
  let stack = Lsutil.Istack.create () in
  let build root =
    if map.(root) < 0 then begin
      Lsutil.Istack.push stack root;
      while not (Lsutil.Istack.is_empty stack) do
        Lsutil.Budget.poll budget;
        let id = Lsutil.Istack.top stack in
        if map.(id) >= 0 then Lsutil.Istack.pop stack
        else
          match construct value id (G.fanins g id) with
          | s ->
              map.(id) <- (s : S.t :> int);
              Lsutil.Istack.pop stack
          | exception Need n -> Lsutil.Istack.push stack n
      done
    end
  in
  G.iter_pos g (fun name s ->
      build (S.node s);
      G.add_po fresh name
        (S.xor_complement
           (S.unsafe_of_int map.(S.node s))
           (S.is_complement s)));
  G.compact fresh

(* All ways of singling out one element of a 3-array:
   (other1, other2, chosen). *)
let rotations (fs : S.t array) =
  [
    (fs.(0), fs.(1), fs.(2));
    (fs.(0), fs.(2), fs.(1));
    (fs.(1), fs.(2), fs.(0));
  ]

(* ----- eliminate: Ω.M (L→R) + Ω.D (R→L) ----- *)

let eliminate g =
  let fanout = G.fanout_counts g in
  rebuild_with g (fun fresh ->
      fun value _id old_fs ->
        let m = Array.map value old_fs in
        let dying s = fanout.(S.node s) <= 1 in
        (* old fanin behind each fresh one, computed once per node —
           the rotation loop below used to rebuild a Seq.filter chain
           over [old_fs] for every candidate *)
        let old_of fnew =
          if S.equal m.(0) fnew then Some old_fs.(0)
          else if S.equal m.(1) fnew then Some old_fs.(1)
          else if S.equal m.(2) fnew then Some old_fs.(2)
          else None
        in
        (* a fanin pair of majority nodes sharing two operands collapses:
           M(M(x,y,u),M(x,y,v),z) = M(x,y,M(u,v,z)) *)
        let candidate =
          List.find_map
            (fun (x, y, z) ->
              match (G.fanins_of fresh x, G.fanins_of fresh y) with
              | Some fx, Some fy -> (
                  match common2 fx fy with
                  | Some (c1, c2, u, v) ->
                      let both_dying =
                        match (old_of x, old_of y) with
                        | Some ox, Some oy -> dying ox && dying oy
                        | _ -> false
                      in
                      let inner_exists = G.find_maj fresh u v z <> None in
                      if both_dying || inner_exists then Some (c1, c2, u, v, z)
                      else None
                  | None -> None)
              | _ -> None)
            (rotations m)
        in
        match candidate with
        | Some (c1, c2, u, v, z) ->
            Tel.count (tel g) "rewrites";
            G.maj fresh c1 c2 (G.maj fresh u v z)
        | None -> G.maj fresh m.(0) m.(1) m.(2))

(* ----- push_up: depth-oriented Ω.D (L→R), Ω.A, Ψ.C ----- *)

(* Slack of every node in [g]: level minus required time.  Only
   zero-slack (critical) nodes are worth restructuring for depth; the
   rest would trade size for nothing (cf. the paper's "critical
   variables" wording in SIV.B). *)
let criticality g =
  let n = G.num_nodes g in
  let lv = G.levels g in
  let d = G.depth g in
  let req = Array.make n max_int in
  List.iter (fun (_, s) -> req.(S.node s) <- d) (G.pos g);
  for id = n - 1 downto 1 do
    if G.is_maj g id && req.(id) < max_int then
      Array.iter
        (fun s ->
          let f = S.node s in
          req.(f) <- min req.(f) (req.(id) - 1))
        (G.fanins g id)
  done;
  Array.init n (fun i -> req.(i) < max_int && lv.(i) >= req.(i))

let push_up g =
  let critical = criticality g in
  rebuild_with g (fun fresh ->
      let level = make_level_fn fresh in
      fun value _id old_fs ->
        let m = Array.map value old_fs in
        if not critical.(_id) then G.maj fresh m.(0) m.(1) m.(2)
        else begin
        let copy_level =
          1 + Array.fold_left (fun acc s -> max acc (level s)) 0 m
        in
        (* Enumerate restructurings that pull the critical grandchild
           up; each candidate is (resulting level, size penalty, build
           thunk). *)
        let candidates = ref [] in
        let add lvl pen thunk = candidates := (lvl, pen, thunk) :: !candidates in
        List.iter
          (fun (x, y, w) ->
            match G.fanins_of fresh w with
            | None -> ()
            | Some inner ->
                let lw = level w in
                if lw >= level x && lw >= level y then
                  List.iter
                    (fun (u, v, z) ->
                      let lx = level x and ly = level y in
                      let lu = level u and lv = level v and lz = level z in
                      (* Ω.D L→R: M(x,y,M(u,v,z)) =
                         M(M(x,y,u),M(x,y,v),z) *)
                      let d_lvl =
                        1 + max (max (1 + max (max lx ly) lu)
                                   (1 + max (max lx ly) lv))
                              lz
                      in
                      add d_lvl 1 (fun () ->
                          G.maj fresh
                            (G.maj fresh x y u)
                            (G.maj fresh x y v)
                            z);
                      (* Ω.A: M(x,u,M(y,u,z)) = M(z,u,M(y,u,x)) — needs
                         a shared operand between outer and inner. *)
                      List.iter
                        (fun (outer_other, shared) ->
                          List.iter
                            (fun (inner_other, inner_shared) ->
                              if S.equal shared inner_shared then begin
                                let a_lvl =
                                  1
                                  + max (max lz (level shared))
                                      (1
                                      + max
                                          (max (level inner_other)
                                             (level shared))
                                          (level outer_other))
                                in
                                add a_lvl 0 (fun () ->
                                    G.maj fresh z shared
                                      (G.maj fresh inner_other shared
                                         outer_other))
                              end;
                              (* Ψ.C: M(x,u,M(y,u',z)) = M(x,u,M(y,x,z)) *)
                              if S.equal shared (S.not_ inner_shared) then begin
                                let c_lvl =
                                  1
                                  + max
                                      (max (level outer_other) (level shared))
                                      (1
                                      + max
                                          (max (level inner_other)
                                             (level outer_other))
                                          lz)
                                in
                                add c_lvl 0 (fun () ->
                                    G.maj fresh outer_other shared
                                      (G.maj fresh inner_other outer_other z))
                              end)
                            [ (u, v); (v, u) ])
                        [ (x, y); (y, x) ])
                    (rotations inner))
          (rotations m);
        let best =
          List.fold_left
            (fun acc ((lvl, pen, _) as c) ->
              match acc with
              | Some (bl, bp, _) when (bl, bp) <= (lvl, pen) -> acc
              | _ -> Some c)
            None !candidates
        in
        match best with
        | Some (lvl, _, thunk) when lvl < copy_level ->
            Tel.count (tel g) "rewrites";
            thunk ()
        | _ -> G.maj fresh m.(0) m.(1) m.(2)
        end)

(* ----- relevance: Ψ.R ----- *)

(* Does the cone of [root] depend on node [target]?  Visits at most
   [limit] majority nodes; [None] when the budget is exceeded.

   Explicit frames (node id + next fanin index) replace the old
   recursion.  Although the memoized walk is depth-bounded by the
   budget in practice, the frame form also replicates the original
   visit order exactly: the budget decrements, memo writes and
   left-to-right short-circuit happen at the same points, so the
   (order-sensitive) budget cut-off cannot move and rewrite plans are
   unchanged. *)
let depends_within g ~limit root target =
  let memo = Hashtbl.create 32 in
  let budget = ref limit in
  let ids = Lsutil.Istack.create () in
  let ks = Lsutil.Istack.create () in
  let res = ref false in
  let overflow = ref false in
  (* evaluate [id]: sets [res], or pushes a frame for a fresh maj *)
  let eval id =
    if id = target then res := true
    else
      match Hashtbl.find_opt memo id with
      | Some d -> res := d
      | None ->
          if not (G.is_maj g id) then begin
            Hashtbl.replace memo id false;
            res := false
          end
          else begin
            decr budget;
            if !budget < 0 then overflow := true
            else begin
              Lsutil.Istack.push ids id;
              Lsutil.Istack.push ks 0;
              res := false
            end
          end
  in
  eval root;
  while (not !overflow) && not (Lsutil.Istack.is_empty ids) do
    let id = Lsutil.Istack.top ids in
    let k = Lsutil.Istack.top ks in
    if !res || k = 3 then begin
      (* short-circuit on the first dependent fanin, or all three seen *)
      Hashtbl.replace memo id !res;
      Lsutil.Istack.pop ids;
      Lsutil.Istack.pop ks
    end
    else begin
      Lsutil.Istack.pop ks;
      Lsutil.Istack.push ks (k + 1);
      eval (S.node (G.fanins g id).(k))
    end
  done;
  if !overflow then None else Some !res

(* Iterative cone rebuild with edge redirection, shared by Ψ.R and
   Ψ.S: rebuild the cone of old node [root] in [fresh], rewriting
   every edge onto node [target] through [redirect] and resolving all
   other non-maj leaves through [value].  Returns the fresh signal of
   [root]'s regular polarity.

   Stack discipline: a node stays on the stack until its first
   pending child — scanned fanin 2, 1, 0 — is done.  That completes
   child subtrees right-to-left, which is exactly the order the
   native-code compiler evaluated the [G.maj fresh (resolve fs.(0))
   (resolve fs.(1)) (resolve fs.(2))] arguments of the recursive
   version in, so node-creation order (and every numbering-sensitive
   decision downstream) is preserved.  When a node is finally built,
   all its children are memoized and [resolve] allocates nothing. *)
let subst_cone g fresh ~value ~target ~redirect root =
  let memo = Hashtbl.create 32 in
  let stack = Lsutil.Istack.create () in
  let resolve e =
    if S.node e = target then redirect e
    else S.xor_complement (Hashtbl.find memo (S.node e)) (S.is_complement e)
  in
  let pending e =
    let n = S.node e in
    if n = target || Hashtbl.mem memo n then -1 else n
  in
  Lsutil.Istack.push stack root;
  while not (Lsutil.Istack.is_empty stack) do
    Lsutil.Budget.poll (bud g);
    let nid = Lsutil.Istack.top stack in
    if Hashtbl.mem memo nid then Lsutil.Istack.pop stack
    else if not (G.is_maj g nid) then begin
      Hashtbl.replace memo nid (value (S.make nid false));
      Lsutil.Istack.pop stack
    end
    else begin
      let fs = G.fanins g nid in
      let p2 = pending fs.(2) in
      if p2 >= 0 then Lsutil.Istack.push stack p2
      else
        let p1 = pending fs.(1) in
        if p1 >= 0 then Lsutil.Istack.push stack p1
        else
          let p0 = pending fs.(0) in
          if p0 >= 0 then Lsutil.Istack.push stack p0
          else begin
            Hashtbl.replace memo nid
              (G.maj fresh (resolve fs.(0)) (resolve fs.(1)) (resolve fs.(2)));
            Lsutil.Istack.pop stack
          end
    end
  done;
  Hashtbl.find memo root

let relevance_rebuild g plan =
  rebuild_with g (fun fresh ->
      fun value id old_fs ->
        match Hashtbl.find_opt plan id with
        | None ->
            let m = Array.map value old_fs in
            G.maj fresh m.(0) m.(1) m.(2)
        | Some (x, y, z) ->
            let xv = value x and yv = value y in
            (* counted only after the [value] demands above: the
               retry-driver may re-run this constructor *)
            Tel.count (tel g) "rewrites";
            (* Rebuild the cone of z, replacing edges onto node(x):
               an edge equal to x becomes y', its complement becomes y. *)
            let redirect e =
              if S.is_complement e = S.is_complement x then S.not_ yv
              else yv
            in
            let zroot =
              subst_cone g fresh ~value ~target:(S.node x) ~redirect
                (S.node z)
            in
            let zv = S.xor_complement zroot (S.is_complement z) in
            G.maj fresh xv yv zv)

let relevance ?(cone_limit = 16) g =
  (* Plan on the old graph: node id -> (x, y, z) old fanin signals,
     meaning "rebuild the cone of z with x replaced by y'". *)
  let plan = Hashtbl.create 64 in
  (* live majs only: with fused rebuilds the input may carry dead
     speculative nodes, and planning on them would waste cone analyses
     (and, in passes that rank candidates, could change results) *)
  G.iter_live_majs g (fun id fs ->
      let found =
        List.find_map
          (fun (x, y, z) ->
            if G.is_maj g (S.node z) && S.node x <> 0 && S.node z <> S.node x
            then
              match
                depends_within g ~limit:cone_limit (S.node z) (S.node x)
              with
              | Some true -> Some (x, y, z)
              | _ -> None
            else None)
          (rotations fs)
      in
      match found with Some p -> Hashtbl.replace plan id p | None -> ());
  relevance_rebuild g plan

(* ----- substitution: Ψ.S ----- *)

(* Two most frequently referenced PIs in the bounded cone of [root];
   the first must re-converge (appear at least twice). *)
let reconvergent_pi_pair g ~limit root =
  let counts = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let budget = ref limit in
  let rec go id =
    if (not (Hashtbl.mem seen id)) && G.is_maj g id && !budget >= 0 then begin
      Hashtbl.replace seen id ();
      decr budget;
      Array.iter
        (fun e ->
          let n = S.node e in
          if G.is_pi g n then
            Hashtbl.replace counts n
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
          else go n)
        (G.fanins g id)
    end
  in
  go root;
  if !budget < 0 then None
  else
    let ranked =
      Hashtbl.fold (fun pi c acc -> (c, pi) :: acc) counts []
      |> List.sort (fun a b -> compare b a)
    in
    match ranked with
    | (c1, v) :: (_, u) :: _ when c1 >= 2 -> Some (v, u)
    | _ -> None

let substitution ?(max_candidates = 8) ~on_critical g =
  let lv = G.levels g in
  let d = G.depth g in
  let nodes = ref [] in
  G.iter_live_majs g (fun id _ -> nodes := id :: !nodes);
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let chosen =
    !nodes
    |> List.filter (fun id -> (not on_critical) || lv.(id) >= d - 1)
    |> List.sort (fun a b -> compare (lv.(b), b) (lv.(a), a))
    |> take max_candidates
  in
  let plan = Hashtbl.create 8 in
  List.iter
    (fun id ->
      match reconvergent_pi_pair g ~limit:24 id with
      | Some (v, u) -> Hashtbl.replace plan id (v, u)
      | None -> ())
    chosen;
  rebuild_with g (fun fresh ->
      let level = make_level_fn fresh in
      fun value id old_fs ->
        let m = Array.map value old_fs in
        let copy = G.maj fresh m.(0) m.(1) m.(2) in
        match Hashtbl.find_opt plan id with
        | None -> copy
        | Some (v, u) ->
            let vv = value (S.make v false) and uv = value (S.make u false) in
            (* k with every edge onto v redirected to [repl] *)
            let subst_build repl =
              let redirect e = S.xor_complement repl (S.is_complement e) in
              subst_cone g fresh ~value ~target:v ~redirect id
            in
            let k_vu = subst_build uv in
            let k_vu' = subst_build (S.not_ uv) in
            (* Ψ.S: M(x,y,z) =
               M(v, M(v',k_{v/u},u), M(v',k_{v/u'},u')) *)
            let cand =
              G.maj fresh vv
                (G.maj fresh (S.not_ vv) k_vu uv)
                (G.maj fresh (S.not_ vv) k_vu' (S.not_ uv))
            in
            if level cand < level copy then begin
              Tel.count (tel g) "rewrites";
              cand
            end
            else copy)

(* ----- derived-identity rewriting: collapse AOIG patterns ----- *)

module T = Truthtable

type pattern = {
  cost : int;  (* majority nodes the replacement costs *)
  needs : int;  (* how many leaves the pattern touches *)
  build_p : G.t -> S.t array -> S.t;
}

let tt_int tt =
  let v = ref 0 in
  for m = 0 to 7 do
    if T.get_bit tt m then v := !v lor (1 lsl m)
  done;
  !v

(* Precomputed table: 3-variable function -> cheapest known MIG
   structure.  Everything here is derivable from Ω (Theorem 3.6); the
   table is how the package reaches those derivations in practice. *)
let pattern_table =
  lazy
    (let tbl : (int, pattern) Hashtbl.t = Hashtbl.create 128 in
     let v = Array.init 3 (fun i -> T.var 3 i) in
     let needs_of tt =
       let n = ref 0 in
       for i = 0 to 2 do
         if T.depends_on tt i then n := i + 1
       done;
       !n
     in
     let add tt p =
       let key = tt_int tt in
       match Hashtbl.find_opt tbl key with
       | Some old when old.cost <= p.cost -> ()
       | _ -> Hashtbl.replace tbl key { p with needs = needs_of tt }
     in
     let lit tt inv = if inv then T.not_ tt else tt in
     let sig_lit s inv = if inv then S.not_ s else s in
     (* majority of three literals *)
     for mask = 0 to 7 do
       for out = 0 to 1 do
         let l i = lit v.(i) (mask land (1 lsl i) <> 0) in
         let tt = lit (T.maj (l 0) (l 1) (l 2)) (out = 1) in
         add tt
           {
             cost = 1;
             needs = 3;
             build_p =
               (fun g leaves ->
                 let li i = sig_lit leaves.(i) (mask land (1 lsl i) <> 0) in
                 sig_lit (G.maj g (li 0) (li 1) (li 2)) (out = 1));
           }
       done
     done;
     (* three-input parity: two levels, three nodes (Fig. 2(b)) *)
     for out = 0 to 1 do
       let tt = lit (T.xor_ (T.xor_ v.(0) v.(1)) v.(2)) (out = 1) in
       add tt
         {
           cost = 3;
           needs = 3;
           build_p =
             (fun g leaves ->
               sig_lit (G.xor3 g leaves.(0) leaves.(1) leaves.(2)) (out = 1));
         }
     done;
     (* two-input parity over each leaf pair *)
     List.iter
       (fun (i, j) ->
         for out = 0 to 1 do
           let tt = lit (T.xor_ v.(i) v.(j)) (out = 1) in
           add tt
             {
               cost = 3;
               needs = max i j + 1;
               build_p =
                 (fun g leaves ->
                   sig_lit (G.xor_ g leaves.(i) leaves.(j)) (out = 1));
             }
         done)
       [ (0, 1); (0, 2); (1, 2) ];
     (* multiplexers *)
     List.iter
       (fun (s, t, e) ->
         for mask = 0 to 7 do
           for out = 0 to 1 do
             let l k inv_bit = lit v.(k) (mask land inv_bit <> 0) in
             let tt =
               lit (T.mux (l s 1) (l t 2) (l e 4)) (out = 1)
             in
             add tt
               {
                 cost = 3;
                 needs = 3;
                 build_p =
                   (fun g leaves ->
                     let li k inv_bit =
                       sig_lit leaves.(k) (mask land inv_bit <> 0)
                     in
                     sig_lit
                       (G.mux g (li s 1) (li t 2) (li e 4))
                       (out = 1));
               }
           done
         done)
       [ (0, 1, 2); (1, 0, 2); (2, 0, 1) ];
     tbl)

let rewrite_patterns ?(k = 3) ?(max_cuts = 8) ?(mode = `Depth) g =
  let tbl = Lazy.force pattern_table in
  let cuts = Cut.enumerate ~k ~max_cuts g in
  let fanout = G.fanout_counts g in
  rebuild_with g (fun fresh ->
      let level = make_level_fn fresh in
      fun value id old_fs ->
        let m = Array.map value old_fs in
        let copy = G.maj fresh m.(0) m.(1) m.(2) in
        let copy_level = level copy in
        let best = ref None in
        List.iter
          (fun cut ->
            let nleaves = Array.length cut in
            if nleaves >= 2 then
              match Hashtbl.find_opt tbl (tt_int (Cut.cut_function g id cut)) with
              | Some p when p.needs <= nleaves ->
                  (* nodes freed by re-expressing the cone on the leaves *)
                  let freed = Cut.mffc_size g ~fanout id cut in
                  let accept lvl =
                    match mode with
                    | `Depth -> lvl < copy_level && p.cost <= freed + 1
                    | `Size ->
                        p.cost < freed
                        || (p.cost = freed && lvl < copy_level)
                  in
                  let leaves = Array.map (fun l -> value (S.make l false)) cut in
                  let s = p.build_p fresh leaves in
                  let key = (level s, p.cost) in
                  (match !best with
                  | Some (bk, _) when bk <= key -> ()
                  | _ -> if accept (level s) then best := Some (key, s))
              | _ -> ())
          cuts.(id);
        match !best with
        | Some (_, s) ->
            Tel.count (tel g) "rewrites";
            s
        | None -> copy)

(* ----- refactoring: cone resynthesis through ISOP + factoring ----- *)

let build_factored fresh leaves form =
  let module F = Sop.Factor in
  let rec go = function
    | F.Const b -> if b then G.const1 fresh else G.const0 fresh
    | F.Lit (i, pos) -> S.xor_complement leaves.(i) (not pos)
    | F.And fs -> (
        match List.map go fs with
        | [] -> G.const1 fresh
        | xs -> G.and_n fresh xs)
    | F.Or fs -> (
        match List.map go fs with
        | [] -> G.const0 fresh
        | xs -> G.or_n fresh xs)
  in
  go form

let refactor ?(max_leaves = 10) ?cache g =
  let fanout = G.fanout_counts g in
  let plan = Hashtbl.create 64 in
  (* ISOP + factoring + costing is a pure function of the cut's truth
     table, and cones repeat heavily across a big netlist — memoize on
     the table (forms refer to leaf indices, so a cached form is valid
     for any cut of the same function).  This exact-table memo is the
     first filter; behind it, an armed [Rwcache] handle answers by NPN
     class and persists across runs.  With no cache the pass computes
     exactly what it always did. *)
  let form_memo = Hashtbl.create 1024 in
  let compute tt = Sop.Factor.factor (Sop.Isop.compute tt) in
  let check = Lsutil.Ctx.check (G.ctx g) in
  let form_of tt =
    match Hashtbl.find_opt form_memo tt with
    | Some fc -> fc
    | None ->
        let form =
          match cache with
          | None -> compute tt
          | Some c ->
              let form, hit = Rwcache.lookup ~check c ~compute tt in
              Tel.count (tel g) (if hit then "rwcache_hits" else "rwcache_misses");
              form
        in
        let fc = (form, Sop.Factor.form_cost form) in
        Hashtbl.add form_memo tt fc;
        fc
  in
  G.iter_live_majs g (fun id _ ->
      let cut = Cut.reconvergent_cut g ~fanout ~max_leaves id in
      let nleaves = Array.length cut in
      if nleaves >= 2 && nleaves <= max_leaves then begin
        let tt = Cut.cut_function g id cut in
        let freed = Cut.mffc_size g ~fanout id cut in
        (* a factored form has one 2-input gate per literal leaf
           minus one, so cost >= |support| - 1: when the MFFC
           cannot beat that bound, the expensive ISOP + factoring
           run cannot change the decision and is skipped *)
        let support = List.length (T.support tt) in
        if freed > support - 1 then begin
          let form, cost = form_of tt in
          if freed > cost then Hashtbl.replace plan id (cut, form)
        end
      end);
  let result =
    rebuild_with g (fun fresh ->
        fun value id old_fs ->
          match Hashtbl.find_opt plan id with
          | None ->
              let m = Array.map value old_fs in
              G.maj fresh m.(0) m.(1) m.(2)
          | Some (cut, form) ->
              let leaves = Array.map (fun l -> value (S.make l false)) cut in
              (* counted after the [value] demands: retry-idempotent *)
              Tel.count (tel g) "rewrites";
              build_factored fresh leaves form)
  in
  if G.size result <= G.size g then result else G.compact g

(* ----- associativity reshape: Ω.A / Ψ.C driven sharing ----- *)

(* The §IV.A reshape rationale: "locally increase the number of common
   inputs/variables to MIG nodes".  For each node of the shape
   M(x, u, M(y, u, z)) (or with u' inside, via Ψ.C) we try the swaps
   the axioms allow and keep one whose inner node *already exists* in
   the graph being built — turning a private node into a shared one
   for free. *)
let reshape_assoc g =
  rebuild_with g (fun fresh ->
      fun value _id old_fs ->
        let m = Array.map value old_fs in
        let copy () = G.maj fresh m.(0) m.(1) m.(2) in
        let candidate =
          List.find_map
            (fun (x, y, w) ->
              match G.fanins_of fresh w with
              | None -> None
              | Some inner ->
                  List.find_map
                    (fun (u, v, z) ->
                      (* treat z as the inner element to swap out *)
                      List.find_map
                        (fun (outer_other, shared) ->
                          List.find_map
                            (fun (inner_other, inner_shared) ->
                              if S.equal shared inner_shared then
                                (* Ω.A: M(x,u,M(y,u,z)) = M(z,u,M(y,u,x)) *)
                                match
                                  G.find_maj fresh inner_other shared
                                    outer_other
                                with
                                | Some existing ->
                                    Some
                                      (fun () ->
                                        G.maj fresh z shared existing)
                                | None -> None
                              else if S.equal shared (S.not_ inner_shared)
                              then
                                (* Ψ.C: M(x,u,M(y,u',z)) = M(x,u,M(y,x,z)) *)
                                match
                                  G.find_maj fresh inner_other outer_other z
                                with
                                | Some existing ->
                                    Some
                                      (fun () ->
                                        G.maj fresh outer_other shared
                                          existing)
                                | None -> None
                              else None)
                            [ (u, v); (v, u) ])
                        [ (x, y); (y, x) ])
                    (rotations inner))
            (rotations m)
        in
        match candidate with
        | Some build ->
            Tel.count (tel g) "rewrites";
            build ()
        | None -> copy ())

(* Shared immutable tables must be materialized before domains spawn:
   concurrent first [Lazy.force] of the same thunk from two domains
   raises [Lazy.Undefined] / races.  [Flow.Batch] calls this once from
   the spawning domain. *)
let prewarm () = ignore (Lazy.force pattern_table)

(* ----- telemetry wrappers -----

   Every pass reports wall-clock, nodes/depth in and out, and the
   number of rewrites it applied, as one span per invocation.  When
   [MIG_STATS] is off the wrappers reduce to a load-and-branch. *)

(* Pass-level fault injection (chaos testing).  [Corrupt] complements
   the first output in place — a structurally clean but functionally
   wrong graph that only the engine's miter can catch. *)
let fault_transform g out =
  match Lsutil.Fault.fire (flt g) "transform" with
  | None -> out
  | Some Lsutil.Fault.Corrupt ->
      if G.num_pos out > 0 then G.Unsafe.flip_po out 0;
      out
  | Some Lsutil.Fault.Raise -> raise (Lsutil.Fault.Injected "transform")
  | Some Lsutil.Fault.Exhaust -> Lsutil.Budget.exhaust (bud g)

let traced name pass g =
  let t = tel g in
  Tel.span t name (fun () ->
      Lsutil.Budget.poll (bud g);
      if Tel.enabled t then begin
        Tel.record_int t "nodes_in" (G.size g);
        Tel.record_int t "depth_in" (G.depth g)
      end;
      let out = pass g in
      let out = if Lsutil.Fault.enabled (flt g) then fault_transform g out else out in
      if Tel.enabled t then begin
        Tel.record_int t "nodes_out" (G.size out);
        Tel.record_int t "depth_out" (G.depth out)
      end;
      out)

let eliminate g = traced "transform:eliminate" eliminate g
let push_up g = traced "transform:push_up" push_up g
let relevance ?cone_limit g = traced "transform:relevance" (relevance ?cone_limit) g

let substitution ?max_candidates ~on_critical g =
  traced "transform:substitution" (substitution ?max_candidates ~on_critical) g

let rewrite_patterns ?k ?max_cuts ?mode g =
  traced "transform:rewrite_patterns" (rewrite_patterns ?k ?max_cuts ?mode) g

let refactor ?max_leaves ?cache g =
  traced "transform:refactor" (refactor ?max_leaves ?cache) g
let reshape_assoc g = traced "transform:reshape_assoc" reshape_assoc g
