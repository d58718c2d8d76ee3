(* The daemon core.  Threading model (DESIGN.md §17):

   - ONE accept loop (the caller's domain under [run], a spawned
     domain under [launch]) owns the listening socket.  It admits
     connections into the bounded {!Queue} or answers them with a
     structured rejection on the spot — admission control happens
     before any work is queued.
   - N worker domains pop connections and own them exclusively from
     the pop onward: socket fd, framing buffer, and the fresh
     [Lsutil.Ctx] of every request all live and die on one domain, so
     the only cross-domain state is the queue itself plus a few
     monotonic counters ([Atomic]) and the cache-delta list (one
     mutex, touched once per request).
   - Request isolation is [Flow.Engine]: budgets degrade to verified
     best-so-far results, injected faults roll back to checkpoints,
     and [Engine.protect] turns anything that still escapes into a
     structured [internal] error frame.  A worker never dies. *)

module P = Protocol
module J = Lsutil.Json

type addr = [ `Tcp of string * int | `Unix of string ]

type config = {
  addr : addr;
  queue_capacity : int;
  workers : int;
  default_timeout_s : float option;
  max_line_bytes : int;
  idle_timeout_s : float;
  cache : Flow.Cache.t option;
  check : bool;
  san : bool;
  seed : int;
}

let default_config ?env addr =
  let e = match env with Some e -> e | None -> Lsutil.Env.load () in
  {
    addr;
    queue_capacity =
      (match e.Lsutil.Env.serve_queue with Some n -> n | None -> 64);
    workers = max 1 (Domain.recommended_domain_count () - 1);
    default_timeout_s = Some 30.;
    max_line_bytes = 8 * 1024 * 1024;
    idle_timeout_s = 30.;
    cache = None;
    check = e.Lsutil.Env.check;
    san = e.Lsutil.Env.san;
    seed = e.Lsutil.Env.seed;
  }

type t = {
  cfg : config;
  lfd : Unix.file_descr;
  bound : addr;
  q : Unix.file_descr Queue.t;
  draining_flag : bool Atomic.t;
  served_n : int Atomic.t;
  rejected_n : int Atomic.t;
  active_n : int Atomic.t;
  avg_ms : int Atomic.t;  (* service-time EWMA feeding retry_after_ms *)
  deltas_lock : Mutex.t;
  mutable deltas : (string * Sop.Factor.form) list list;  (* newest first *)
  mutable workers_d : unit Domain.t list;
  mutable accept_d : unit Domain.t option;
}

let bound_addr t = t.bound
let draining t = Atomic.get t.draining_flag
let served t = Atomic.get t.served_n
let rejected t = Atomic.get t.rejected_n
let drain t = Atomic.set t.draining_flag true

(* {2 Socket plumbing} *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Partial writes and peer resets are normal life for a daemon: [send]
   pushes the whole string or reports the connection dead, it never
   raises.  SIGPIPE is ignored process-wide (see [make]), so a closed
   peer surfaces as EPIPE here. *)
let send fd s =
  let len = String.length s in
  let rec go pos =
    if pos >= len then true
    else
      match Unix.write_substring fd s pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go 0

let send_json fd j = send fd (J.to_string j ^ "\n")

(* {2 Request processing} *)

let build_network = function
  | P.Bench name -> (
      try Ok ((Benchmarks.Suite.find name).Benchmarks.Suite.build ())
      with Not_found ->
        Error
          (Printf.sprintf "unknown benchmark %S (known: %s)" name
             (String.concat ", " Benchmarks.Suite.names)))
  | P.Blif src -> (
      try Ok (Logic_io.Blif.read src) with
      | Logic_io.Io_error.Parse_error { line; msg } ->
          Error (Printf.sprintf "blif line %d: %s" line msg)
      | Failure msg -> Error ("blif: " ^ msg))
  | P.Verilog src -> (
      try Ok (Logic_io.Verilog.read src) with
      | Logic_io.Io_error.Parse_error { line; msg } ->
          Error (Printf.sprintf "verilog line %d: %s" line msg)
      | Failure msg -> Error ("verilog: " ^ msg))

let note_time t time_s =
  let ms = max 1 (int_of_float (time_s *. 1000.)) in
  let old = Atomic.get t.avg_ms in
  Atomic.set t.avg_ms (if old = 0 then ms else ((7 * old) + ms) / 8)

(* A queue's worth of requests ahead of you, spread over the worker
   pool, each taking about the running average: the hint a rejected
   client should wait before retrying. *)
let retry_after_ms t =
  let per = max 20 (Atomic.get t.avg_ms) in
  let ahead = Queue.length t.q + 1 in
  min 60_000 (max 50 (per * ahead / max 1 t.cfg.workers))

let record_delta t rwh =
  Mutex.lock t.deltas_lock;
  t.deltas <- Mig.Rwcache.delta rwh :: t.deltas;
  Mutex.unlock t.deltas_lock

(* One optimize request, end to end, on the worker's domain.  The
   fresh ctx is the reentrancy unit; the fault plan (if any) is armed
   only around [Engine.run], so parsing/conversion and the response
   writer stay outside the blast radius — exactly the [mighty opt]
   policy.  Returns whether the connection is still usable. *)
let process_optimize t fd (r : P.request) =
  let cfg = t.cfg in
  let fault_plan =
    match r.fault with
    | None -> Ok None
    | Some s -> (
        match Lsutil.Fault.parse s with
        | Ok sp -> Ok (Some sp)
        | Error e -> Error ("fault: " ^ e))
  in
  match (fault_plan, build_network r.circuit) with
  | Error msg, _ | Ok _, Error msg ->
      send_json fd (P.error_to_json ?id:r.id P.Bad_request msg)
  | Ok plan, Ok net ->
      let ctx =
        Lsutil.Ctx.create ~stats:r.stats ~check:cfg.check ~san:cfg.san
          ~seed:cfg.seed ()
      in
      let tel = Lsutil.Ctx.stats ctx in
      let timeout_s =
        match (r.timeout_s, cfg.default_timeout_s) with
        | Some a, Some b -> Some (Float.min a b)
        | Some a, None -> Some a
        | None, d -> d
      in
      let trace =
        if r.stats then
          Some
            (fun pass ->
              ignore
                (send_json fd
                   (P.telemetry_to_json ?id:r.id ~event:"pass"
                      [ ("pass", J.String pass) ])))
        else None
      in
      let rwh =
        Option.map (fun c -> Mig.Rwcache.fork (Flow.Cache.rw c)) cfg.cache
      in
      let flt = Lsutil.Ctx.fault ctx in
      let outcome, time_s =
        Lsutil.Telemetry.time (fun () ->
            Flow.Engine.protect ~tel ~name:"serve" (fun () ->
                let m =
                  Mig.Convert.of_network ~ctx (Network.Graph.flatten_aoig net)
                in
                let size_in = Mig.Graph.size m in
                let depth_in = Mig.Graph.depth m in
                if r.stats then
                  ignore
                    (send_json fd
                       (P.telemetry_to_json ?id:r.id ~event:"started"
                          [
                            ("size_in", J.Int size_in);
                            ("depth_in", J.Int depth_in);
                          ]));
                (match plan with
                | Some sp -> Lsutil.Fault.arm flt sp
                | None -> ());
                let out, report =
                  Fun.protect
                    ~finally:(fun () -> Lsutil.Fault.disarm flt)
                    (fun () ->
                      match r.goal with
                      | (`Size | `Depth | `Activity) as goal ->
                          Flow.Batch.optimizer_of_spec ?cache:rwh ?trace
                            {
                              Flow.Batch.goal;
                              effort = r.effort;
                              timeout_s;
                              max_nodes = r.max_nodes;
                              verify = None;
                              seed = 0xda14;
                            }
                            m
                      | `Search ->
                          (* orchestrated beam search under the same
                             clamped budget; the trajectory record is
                             server-side only (spans carry it when the
                             client asked for stats) *)
                          let spec =
                            {
                              Flow.Orchestrate.goal = `Size;
                              beam = r.beam;
                              rounds = 2 * r.effort;
                              seed = 0xda14;
                              timeout_s;
                              max_nodes = r.max_nodes;
                            }
                          in
                          let circuit =
                            match r.circuit with
                            | P.Bench n -> n
                            | P.Blif _ -> "blif"
                            | P.Verilog _ -> "verilog"
                          in
                          let out, report, _traj =
                            Flow.Orchestrate.run ?cache:rwh ~circuit ~spec m
                          in
                          (out, report))
                in
                (size_in, depth_in, out, report)))
      in
      Option.iter (record_delta t) rwh;
      Lsutil.San.drain (Lsutil.Ctx.san ctx);
      note_time t time_s;
      (match outcome with
      | Error oc ->
          send_json fd
            (P.error_to_json ?id:r.id P.Internal
               ("optimization " ^ Flow.Engine.outcome_name oc))
      | Ok (size_in, depth_in, out, report) ->
          let blif =
            match r.emit with
            | `Blif when report.Flow.Engine.verified ->
                Some
                  (Format.asprintf "%a"
                     (fun fmt n -> Logic_io.Blif.write fmt n)
                     (Mig.Convert.to_network out))
            | `Blif | `None -> None
          in
          send_json fd
            (P.result_to_json
               {
                 P.r_id = r.id;
                 size_in;
                 depth_in;
                 size_out = Mig.Graph.size out;
                 depth_out = Mig.Graph.depth out;
                 degraded = report.Flow.Engine.degraded;
                 verified = report.Flow.Engine.verified;
                 rollbacks = report.Flow.Engine.rollbacks;
                 time_s;
                 blif;
                 report = Flow.Engine.report_to_json report;
               }))

let handle_line t fd line =
  if String.trim line = "" then true
  else
    match P.parse_request line with
    | Error (code, msg) -> send_json fd (P.error_to_json code msg)
    | Ok P.Ping ->
        let ok =
          send_json fd
            (P.pong_to_json ~queue_depth:(Queue.length t.q)
               ~queue_capacity:(Queue.capacity t.q) ~workers:t.cfg.workers
               ~served:(Atomic.get t.served_n)
               ~active:(Atomic.get t.active_n)
               ~draining:(Atomic.get t.draining_flag))
        in
        Atomic.incr t.served_n;
        ok
    | Ok (P.Optimize r) ->
        Atomic.incr t.active_n;
        let ok =
          Fun.protect
            ~finally:(fun () -> Atomic.decr t.active_n)
            (fun () -> process_optimize t fd r)
        in
        Atomic.incr t.served_n;
        ok

let handle_event t fd = function
  | Framing.Line line -> handle_line t fd line
  | Framing.Oversized n ->
      send_json fd
        (P.error_to_json P.Oversized
           (Printf.sprintf "request line of %d bytes exceeds the %d-byte limit"
              n t.cfg.max_line_bytes))

(* One connection: read, frame, answer, until EOF / idle timeout /
   dead peer.  The fd is closed here no matter what. *)
let handle_conn t fd =
  Fun.protect
    ~finally:(fun () -> close_noerr fd)
    (fun () ->
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout_s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.idle_timeout_s
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let fr = Framing.create ~max_line_bytes:t.cfg.max_line_bytes () in
      let buf = Bytes.create 65536 in
      let rec loop () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            let alive =
              List.fold_left
                (fun ok ev -> ok && handle_event t fd ev)
                true (Framing.feed fr buf 0 n)
            in
            if alive then loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error (_, _, _) -> ()
      in
      loop ())

let worker_loop t =
  let tel = Lsutil.Telemetry.create ~enabled:false () in
  let rec loop () =
    match Queue.pop t.q with
    | None -> ()
    | Some fd ->
        (* [handle_conn] already isolates request failures; the
           [protect] wrapper is the never-die backstop for connection
           plumbing itself (the fd is closed by handle_conn's finally
           either way) *)
        (match
           Flow.Engine.protect ~tel ~name:"serve-conn" (fun () ->
               handle_conn t fd)
         with
        | Ok () | Error _ -> ());
        loop ()
  in
  loop ()

(* {2 Accept loop and lifecycle} *)

let reject fd code msg retry =
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  ignore (send_json fd (P.error_to_json ?retry_after_ms:retry code msg));
  close_noerr fd

let accept_loop t =
  let rec loop () =
    if Atomic.get t.draining_flag then ()
    else begin
      (match Unix.select [ t.lfd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true t.lfd with
          | fd, _ ->
              if Atomic.get t.draining_flag then
                reject fd P.Draining "server is draining" None
              else if not (Queue.try_push t.q fd) then begin
                Atomic.incr t.rejected_n;
                reject fd P.Overloaded "admission queue full"
                  (Some (retry_after_ms t))
              end
          | exception Unix.Unix_error (_, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  close_noerr t.lfd;
  (* closing the queue is the worker-exit signal; already-admitted
     connections are still served first (Queue semantics) *)
  Queue.close t.q

let inet_addr host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> failwith ("serve: unknown host " ^ host))

let sockaddr_of = function
  | `Tcp (host, port) -> Unix.ADDR_INET (inet_addr host, port)
  | `Unix path -> Unix.ADDR_UNIX path

let bound_of lfd = function
  | `Unix path -> `Unix path
  | `Tcp (host, _) -> (
      match Unix.getsockname lfd with
      | Unix.ADDR_INET (_, port) -> `Tcp (host, port)
      | Unix.ADDR_UNIX path -> `Unix path)

let make cfg =
  if cfg.queue_capacity < 1 then invalid_arg "Serve.Server: queue_capacity";
  if cfg.workers < 0 then invalid_arg "Serve.Server: workers";
  (* a dead peer must be an EPIPE result, not a process kill *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let domain =
    match cfg.addr with `Tcp _ -> Unix.PF_INET | `Unix _ -> Unix.PF_UNIX
  in
  let lfd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match cfg.addr with
  | `Tcp _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()));
  (try
     Unix.bind lfd (sockaddr_of cfg.addr);
     Unix.listen lfd 64
   with e ->
     close_noerr lfd;
     raise e);
  let t =
    {
      cfg;
      lfd;
      bound = bound_of lfd cfg.addr;
      q = Queue.create ~capacity:cfg.queue_capacity;
      draining_flag = Atomic.make false;
      served_n = Atomic.make 0;
      rejected_n = Atomic.make 0;
      active_n = Atomic.make 0;
      avg_ms = Atomic.make 0;
      deltas_lock = Mutex.create ();
      deltas = [];
      workers_d = [];
      accept_d = None;
    }
  in
  (* force the library's only top-level lazy before spawning, same as
     Flow.Batch: no two domains may race its first Lazy.force *)
  Mig.Transform.prewarm ();
  t.workers_d <-
    List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let join t =
  (match t.accept_d with
  | Some d ->
      Domain.join d;
      t.accept_d <- None
  | None -> ());
  List.iter Domain.join t.workers_d;
  t.workers_d <- [];
  (* with workers = 0 (the saturation test hook) admitted connections
     are still queued here: answer them, don't just drop the fds *)
  let rec flush_admitted () =
    match Queue.try_pop t.q with
    | Some fd ->
        reject fd P.Draining "server is draining" None;
        flush_admitted ()
    | None -> ()
  in
  flush_admitted ();
  (match t.cfg.cache with
  | None -> ()
  | Some c ->
      Mutex.lock t.deltas_lock;
      let ds = List.rev t.deltas in
      t.deltas <- [];
      Mutex.unlock t.deltas_lock;
      Flow.Cache.absorb_rw c ds;
      (match Flow.Cache.save c with
      | Ok () -> ()
      | Error msg -> Printf.eprintf "serve: cache save: %s\n%!" msg));
  match t.bound with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ()

let launch cfg =
  let t = make cfg in
  t.accept_d <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let run ?(handle_signals = true) cfg =
  let t = make cfg in
  if handle_signals then begin
    (* the handler only flips an Atomic: async-signal-safe, and the
       0.2 s select tick in the accept loop notices it promptly *)
    let stop _ = Atomic.set t.draining_flag true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
  end;
  accept_loop t;
  join t
