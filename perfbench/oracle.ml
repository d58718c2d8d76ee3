(* The independent check of every output: re-parse the emitted BLIF and
   compare it with the flattened input by network simulation
   ([Network.Simulate.equivalent]: exact truth tables up to 14 PIs,
   random patterns above), never by the optimizer's own [Mig.Equiv]
   verdict.  Runs outside every timed interval.  Identical (input,
   output) pairs are checked once; [expected_key] names the input. *)

type t = (string, string option) Hashtbl.t

let create () : t = Hashtbl.create 64

(* [None] when [blif] implements [expected]; otherwise the reason. *)
let check (memo : t) ~name ~(expected : Network.Graph.t) ~expected_key blif =
  let key = expected_key ^ Digest.string blif in
  match Hashtbl.find_opt memo key with
  | Some v -> v
  | None ->
      let verdict =
        match Logic_io.Blif.read blif with
        | exception Logic_io.Io_error.Parse_error { line; msg } ->
            Some (Printf.sprintf "%s: output BLIF line %d: %s" name line msg)
        | out ->
            let inp = Network.Graph.flatten_aoig expected in
            if not (Network.Simulate.same_interface inp out) then
              Some (name ^ ": output interface differs from the input")
            else if not (Network.Simulate.equivalent ~seed:0x0c1e inp out) then
              Some (name ^ ": output is not equivalent to the input")
            else None
      in
      Hashtbl.replace memo key verdict;
      verdict
