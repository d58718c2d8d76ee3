type form =
  | Const of bool
  | Lit of int * bool
  | And of form list
  | Or of form list

(* Most frequent literal across the cubes, provided it occurs at least
   twice (otherwise division is pointless). *)
let best_literal cubes =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun lit ->
          Hashtbl.replace tbl lit (1 + Option.value ~default:0 (Hashtbl.find_opt tbl lit)))
        (Cube.literals c))
    cubes;
  Hashtbl.fold
    (fun lit n best ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ when n >= 2 -> Some (lit, n)
      | _ -> best)
    tbl None

let cube_form c =
  match Cube.literals c with
  | [] -> Const true
  | [ (v, pos) ] -> Lit (v, pos)
  | lits -> And (List.map (fun (v, pos) -> Lit (v, pos)) lits)

let smart_and a b =
  match (a, b) with
  | Const false, _ | _, Const false -> Const false
  | Const true, x | x, Const true -> x
  | And xs, And ys -> And (xs @ ys)
  | And xs, y -> And (xs @ [ y ])
  | x, And ys -> And (x :: ys)
  | x, y -> And [ x; y ]

let smart_or a b =
  match (a, b) with
  | Const true, _ | _, Const true -> Const true
  | Const false, x | x, Const false -> x
  | Or xs, Or ys -> Or (xs @ ys)
  | Or xs, y -> Or (xs @ [ y ])
  | x, Or ys -> Or (x :: ys)
  | x, y -> Or [ x; y ]

let rec factor_cubes cubes =
  match cubes with
  | [] -> Const false
  | [ c ] -> cube_form c
  | _ when List.exists (fun c -> Cube.size c = 0) cubes -> Const true
  | _ -> (
      match best_literal cubes with
      | None -> (
          match List.map cube_form cubes with
          | [] -> Const false
          | [ f ] -> f
          | fs -> Or fs)
      | Some (((v, pos) as _lit), _) ->
          let quotient, remainder =
            List.partition (fun c -> Cube.polarity c v = Some pos) cubes
          in
          let quotient = List.map (fun c -> Cube.drop_var c v) quotient in
          let divided = smart_and (Lit (v, pos)) (factor_cubes quotient) in
          if remainder = [] then divided
          else smart_or divided (factor_cubes remainder))

let factor (c : Cover.t) = factor_cubes c.Cover.cubes

let rec literal_count = function
  | Const _ -> 0
  | Lit _ -> 1
  | And fs | Or fs -> List.fold_left (fun a f -> a + literal_count f) 0 fs

(* ceil(log2 n) for n >= 1 *)
(* One 2-input gate per binary combination, no sharing. *)
let rec form_cost = function
  | Const _ | Lit _ -> 0
  | And fs | Or fs ->
      List.fold_left (fun acc f -> acc + form_cost f) (List.length fs - 1) fs

let clog2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let rec depth = function
  | Const _ | Lit _ -> 0
  | And fs | Or fs ->
      let d = List.fold_left (fun a f -> max a (depth f)) 0 fs in
      d + clog2 (max 1 (List.length fs))

let rec eval f env =
  match f with
  | Const b -> b
  | Lit (v, pos) -> env v = pos
  | And fs -> List.for_all (fun g -> eval g env) fs
  | Or fs -> List.exists (fun g -> eval g env) fs

let rec to_truthtable n = function
  | Const false -> Truthtable.const0 n
  | Const true -> Truthtable.const1 n
  | Lit (v, pos) ->
      let t = Truthtable.var n v in
      if pos then t else Truthtable.not_ t
  | And fs ->
      List.fold_left
        (fun acc g -> Truthtable.and_ acc (to_truthtable n g))
        (Truthtable.const1 n) fs
  | Or fs ->
      List.fold_left
        (fun acc g -> Truthtable.or_ acc (to_truthtable n g))
        (Truthtable.const0 n) fs

let rec pp ~vars fmt = function
  | Const b -> Format.pp_print_string fmt (if b then "1" else "0")
  | Lit (v, pos) ->
      Format.fprintf fmt "%s%s" (vars v) (if pos then "" else "'")
  | And fs ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "*")
        (pp_atom ~vars) fmt fs
  | Or fs ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " + ")
        (pp ~vars) fmt fs

and pp_atom ~vars fmt f =
  match f with
  | Or _ -> Format.fprintf fmt "(%a)" (pp ~vars) f
  | _ -> pp ~vars fmt f
