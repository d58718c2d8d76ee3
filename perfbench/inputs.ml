(* Seeded inputs.  A circuit is presented to the program as BLIF text
   whose PI and PO declaration orders are a seeded permutation and whose
   names carry a seed tag, so each seed gives a different (but
   equivalent) file and the program cannot recognise a fixed input. *)

module G = Network.Graph
module S = Network.Signal

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Lsutil.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Copy [net] with its PIs declared in [pi_order] and its POs in
   [po_order] (both index arrays), every name prefixed by [tag].  With
   [~complement:k] the PO at original index [k] is inverted. *)
let present ?complement ~tag ~pi_order ~po_order net =
  let out = G.create () in
  let map = Array.make (G.num_nodes net) (G.const0 out) in
  let pis = Array.of_list (G.pis net) in
  Array.iter (fun k -> map.(pis.(k)) <- G.add_pi out (tag ^ G.pi_name net pis.(k))) pi_order;
  let sg s = S.xor_complement map.(S.node s) (S.is_complement s) in
  G.iter_gates net (fun i fn a ->
      map.(i) <-
        (match (fn, Array.map sg a) with
        | G.And, [| x; y |] -> G.and_ out x y
        | G.Or, [| x; y |] -> G.or_ out x y
        | G.Xor, [| x; y |] -> G.xor_ out x y
        | G.Maj, [| x; y; z |] -> G.maj out x y z
        | G.Mux, [| s; t; e |] -> G.mux out s t e
        | _ -> invalid_arg "present: gate arity"));
  let pos = Array.of_list (G.pos net) in
  Array.iter
    (fun k ->
      let name, s = pos.(k) in
      let s = if complement = Some k then S.not_ (sg s) else sg s in
      G.add_po out (tag ^ name) s)
    po_order;
  out

type circuit = {
  name : string;
  net : Network.Graph.t;  (** the seeded presentation *)
  text : string;  (** its BLIF, the file the program receives *)
}

let blif_text net = Format.asprintf "%a" (fun fmt n -> Logic_io.Blif.write fmt n) net

(* The seeded presentation of [net]; [rng] decides both orders. *)
let circuit rng ~tag name net =
  let pi_order = shuffle rng (Array.init (G.num_pis net) Fun.id) in
  let po_order = shuffle rng (Array.init (G.num_pos net) Fun.id) in
  let net = present ~tag ~pi_order ~po_order net in
  { name; net; text = blif_text net }

(* [c.net] with its [k]-th PO inverted: a single-output edit. *)
let complement_po c k =
  let id n = Array.init n Fun.id in
  present ~complement:k ~tag:""
    ~pi_order:(id (G.num_pis c.net))
    ~po_order:(id (G.num_pos c.net))
    c.net

(* Gate count of each PO's input cone. *)
let cone_sizes net =
  let seen = Array.make (G.num_nodes net) (-1) in
  List.mapi
    (fun k (_, s) ->
      let rec go n i =
        if seen.(i) = k then n
        else (
          seen.(i) <- k;
          match G.node net i with
          | G.Gate (_, a) -> Array.fold_left (fun n s -> go n (S.node s)) (n + 1) a
          | G.Const0 | G.Pi _ -> n)
      in
      go 0 (S.node s))
    (G.pos net)

(* [k] PO indices of [c]: the middle PO of each of [k] strata of equal
   count when ordered by cone size, so every edit series spans the same
   range of cone sizes. *)
let stratified_pos c k =
  let sizes = Array.of_list (cone_sizes c.net) in
  let n = Array.length sizes in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare sizes.(a) sizes.(b)) order;
  let k = min k n in
  List.init k (fun j -> order.(((j * n / k) + ((j + 1) * n / k)) / 2))

let tag_of_seed seed = Printf.sprintf "s%d_" seed

let table1 ~seed names =
  let rng = Lsutil.Rng.create (0x7ab1e + seed) in
  let tag = tag_of_seed seed in
  List.map
    (fun n -> circuit rng ~tag n ((Benchmarks.Suite.find n).Benchmarks.Suite.build ()))
    names
