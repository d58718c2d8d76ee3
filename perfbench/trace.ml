(* Spans recorded by the benchmark around its calls into the program's
   layers.  A tracer belongs to one thread of control; serve clients each
   get their own and the spans are merged at the end; ids are unique
   across all of them.  With [on = false] a span is a plain call, so the
   untraced runs that give the end-to-end figures pay nothing for it. *)

type span = {
  sid : int;
  name : string;
  op : int;  (** one id per operation *)
  parent : int;  (** 0 at the root *)
  t0 : float;
  t1 : float;
}

type t = {
  on : bool;
  mutable stack : int list;
  mutable spans : span list;
  mutable op : int;
}

let now = Unix.gettimeofday
let create on = { on; stack = []; spans = []; op = 0 }

(* Span and op ids are unique across tracers and domains. *)
let ids = Atomic.make 0
let fresh () = 1 + Atomic.fetch_and_add ids 1

let parent tr = match tr.stack with p :: _ -> p | [] -> 0

(* Start a new operation: later spans carry its id. *)
let begin_op tr = tr.op <- fresh ()

let span tr name f =
  if not tr.on then f ()
  else begin
    let sid = fresh () and parent = parent tr in
    tr.stack <- sid :: tr.stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        tr.stack <- List.tl tr.stack;
        tr.spans <- { sid; name; op = tr.op; parent; t0; t1 } :: tr.spans)
      f
  end

(* A child of the innermost open span whose duration the program
   reported itself (an engine pass); laid out back to back from [t0]. *)
let reported tr name ~t0 ~dur =
  if tr.on then
    tr.spans <-
      { sid = fresh (); name; op = tr.op; parent = parent tr; t0; t1 = t0 +. dur }
      :: tr.spans

(* Self time per span name: a span's duration minus the durations of
   its direct children. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (c +. (s.t1 -. s.t0)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own =
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt children s.sid)
      in
      let c = Option.value ~default:0. (Hashtbl.find_opt self s.name) in
      Hashtbl.replace self s.name (c +. own))
    spans;
  self

let self_of tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* Inclusive time of every span with [name]. *)
let total spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0. spans

let write_file path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"schema\":\"perfbench-trace/1\",\"spans\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":\"%s\",\"op\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
            (if i = 0 then "" else ",")
            s.sid s.name s.op s.parent s.t0 s.t1)
        (List.sort (fun a b -> compare a.t0 b.t0) spans);
      output_string oc "]}\n")
