module type DAG = sig
  type t

  val num_nodes : t -> int
  val is_pi : t -> int -> bool
  val is_gate : t -> int -> bool
  val fanins : t -> int -> Signal.t array
  val eval : t -> int -> Truthtable.t array -> Truthtable.t
  val live : t -> int -> bool
  val poll : t -> unit -> unit
  val min_vars : int
end

module type S = sig
  type graph
  type t = int array

  val enumerate : k:int -> max_cuts:int -> graph -> t list array
  val cut_function : graph -> int -> t -> Truthtable.t
  val cone : graph -> int -> t -> int list
  val mffc_size : graph -> fanout:int array -> int -> t -> int
  val reconvergent_cut : graph -> fanout:int array -> max_leaves:int -> int -> t
end

module Make (D : DAG) = struct
  module S = Signal

  type graph = D.t
  type t = int array

  (* Merge two sorted duplicate-free arrays into one. *)
  let merge a b =
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let push v =
      out.(!k) <- v;
      incr k
    in
    while !i < la && !j < lb do
      if a.(!i) < b.(!j) then (push a.(!i); incr i)
      else if a.(!i) > b.(!j) then (push b.(!j); incr j)
      else (push a.(!i); incr i; incr j)
    done;
    while !i < la do push a.(!i); incr i done;
    while !j < lb do push b.(!j); incr j done;
    Array.sub out 0 !k

  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest

  let enumerate ~k ~max_cuts g =
    let n = D.num_nodes g in
    let live = D.live g and poll = D.poll g in
    let cuts : t list array = Array.make n [] in
    for i = 0 to n - 1 do
      poll ();
      cuts.(i) <-
        (if i = 0 then [ [||] ]
         else if D.is_pi g i then [ [| i |] ]
         else if not (live i) then
           (* dead gates keep no cuts: nothing ever asks for them, and
              the k-feasible merge below is the expensive part *)
           []
         else
           let merged =
             Array.fold_left
               (fun acc s ->
                 List.concat_map
                   (fun m ->
                     List.filter_map
                       (fun c ->
                         let u = merge m c in
                         if Array.length u <= k then Some u else None)
                       cuts.(S.node s))
                   acc)
               [ [||] ] (D.fanins g i)
           in
           (* polymorphic [compare] orders int arrays by length first,
              so the deduplicated list already prefers small cuts *)
           [| i |] :: take (max_cuts - 1) (List.sort_uniq compare merged))
    done;
    cuts

  let cut_function g root cut =
    let module T = Truthtable in
    let nv = max D.min_vars (Array.length cut) in
    let memo = Hashtbl.create 32 in
    Array.iteri (fun idx leaf -> Hashtbl.replace memo leaf (T.var nv idx)) cut;
    let rec go id =
      match Hashtbl.find_opt memo id with
      | Some tt -> tt
      | None ->
          let tt =
            if id = 0 then T.const0 nv
            else if D.is_gate g id then
              D.eval g id
                (Array.map
                   (fun s ->
                     let tt = go (S.node s) in
                     if S.is_complement s then T.not_ tt else tt)
                   (D.fanins g id))
            else invalid_arg "Cut.cut_function: primary input outside the cut"
          in
          Hashtbl.replace memo id tt;
          tt
    in
    go root

  let cone g root cut =
    let rec in_cut id i = i < Array.length cut && (cut.(i) = id || in_cut id (i + 1)) in
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    let rec go id =
      if
        (not (in_cut id 0))
        && (not (Hashtbl.mem seen id))
        && D.is_gate g id
      then begin
        Hashtbl.replace seen id ();
        acc := id :: !acc;
        Array.iter (fun s -> go (S.node s)) (D.fanins g id)
      end
    in
    go root;
    !acc

  let mffc_size g ~fanout root cut =
    (* descending ids: reverse topological order *)
    let nodes = List.sort (fun a b -> compare b a) (cone g root cut) in
    let size = ref 0 in
    let refs = Hashtbl.create 16 in
    let bump id =
      Hashtbl.replace refs id (1 + Option.value ~default:0 (Hashtbl.find_opt refs id))
    in
    List.iter
      (fun id ->
        let inside =
          id = root
          || Option.value ~default:0 (Hashtbl.find_opt refs id) = fanout.(id)
        in
        if inside then begin
          incr size;
          Array.iter (fun s -> bump (S.node s)) (D.fanins g id)
        end)
      nodes;
    !size

  (* Sorted-array set operations over at most [max_leaves] node ids:
     expand the leaf minimizing ((fanout = 1 ? 0 : 1), resulting
     cardinality), ties to the smallest leaf id, without any
     per-candidate allocation. *)
  let reconvergent_cut g ~fanout ~max_leaves root =
    let ff = Array.make 3 0 in
    (* the sorted, deduplicated, non-constant fanin ids of [id] into
       [ff]; returns their number *)
    let fanin_ids id =
      let fs = D.fanins g id in
      let n = ref 0 in
      for f = 0 to Array.length fs - 1 do
        let v = S.node fs.(f) in
        if v <> 0 then begin
          let j = ref !n in
          while !j > 0 && ff.(!j - 1) > v do decr j done;
          if !j = 0 || ff.(!j - 1) <> v then begin
            for m = !n downto !j + 1 do ff.(m) <- ff.(m - 1) done;
            ff.(!j) <- v;
            incr n
          end
        end
      done;
      !n
    in
    let nf = fanin_ids root in
    let leaves = Array.make (max max_leaves nf) 0 in
    Array.blit ff 0 leaves 0 nf;
    let nl = ref nf in
    (* a candidate is only written while it still fits: past
       [max_leaves] it is rejected, so its size is all that counts *)
    let cand = Array.make max_leaves 0 in
    let best = Array.make max_leaves 0 in
    let continue_ = ref true in
    while !continue_ do
      (* score packed as (fanout flag) * 2^20 + cardinality, so an int
         compare is the lexicographic compare of the pair *)
      let best_score = ref max_int and best_n = ref 0 in
      for li = 0 to !nl - 1 do
        let id = leaves.(li) in
        if D.is_gate g id then begin
          let nf = fanin_ids id in
          (* merge (leaves \ {id}) with ff into cand *)
          let n = ref 0 and j = ref 0 in
          let push v =
            if !n < max_leaves then cand.(!n) <- v;
            incr n
          in
          for i = 0 to !nl - 1 do
            if i <> li then begin
              let v = leaves.(i) in
              while !j < nf && ff.(!j) < v do
                push ff.(!j);
                incr j
              done;
              if !j < nf && ff.(!j) = v then incr j;
              push v
            end
          done;
          while !j < nf do
            push ff.(!j);
            incr j
          done;
          if !n <= max_leaves then begin
            let sc = ((if fanout.(id) = 1 then 0 else 1) lsl 20) + !n in
            if sc < !best_score then begin
              best_score := sc;
              best_n := !n;
              Array.blit cand 0 best 0 !n
            end
          end
        end
      done;
      if !best_score < max_int then begin
        Array.blit best 0 leaves 0 !best_n;
        nl := !best_n
      end
      else continue_ := false
    done;
    Array.sub leaves 0 !nl
end
