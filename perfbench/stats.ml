(* Order statistics used by the report. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* A percentile is reported only when at least ten samples lie beyond
   it: [p] needs [n * (1 - p) >= 10]. *)
let percentile_ok p n = float_of_int n *. (1. -. p) >= 10.

let geomean = function
  | [] -> nan
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. l
        /. float_of_int (List.length l))

let sum = List.fold_left ( +. ) 0.
