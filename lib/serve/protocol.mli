(** The [mighty-serve/1] wire protocol: newline-delimited JSON.

    One request per line; the daemon answers each request with zero or
    more {e telemetry} frames followed by exactly one terminal frame —
    a {e result}, a {e pong}, or a structured {e error}.  Every frame
    is a single JSON line carrying [{"schema":"mighty-serve/1",
    "type":...}]; unknown request fields are ignored (forward
    compatibility), malformed or missing required fields are a
    [Bad_request]/[Protocol] error, never an exception (DESIGN.md
    §17 has the full schema).

    Decoding is total: {!parse_request} and {!decode_frame} return
    [Error] on every malformed input — raw byte soup, truncated JSON,
    unpaired surrogates — which is what the fuzz suite in
    [test_serve.ml] pins down. *)

val schema : string
(** ["mighty-serve/1"]. *)

type circuit =
  | Bench of string  (** a named Table-I benchmark ([Benchmarks.Suite]) *)
  | Blif of string  (** inline BLIF source *)
  | Verilog of string  (** inline structural Verilog source *)

type request = {
  id : string option;  (** echoed verbatim on every response frame *)
  circuit : circuit;
  goal : [ `Size | `Depth | `Activity | `Search ];
      (** [`Search]: orchestrated beam search ({!Flow.Orchestrate})
          instead of a fixed script *)
  effort : int;
  beam : int;  (** beam width, [`Search] goal only (default 2) *)
  timeout_s : float option;  (** per-request deadline (server may clamp) *)
  max_nodes : int option;
  fault : string option;  (** {!Lsutil.Fault} spec armed for this request *)
  emit : [ `None | `Blif ];  (** return the optimized circuit text *)
  stats : bool;  (** stream per-pass telemetry frames *)
}

type req = Optimize of request | Ping

type error_code =
  | Bad_request  (** well-formed frame, invalid content *)
  | Protocol  (** not a valid [mighty-serve/1] frame *)
  | Oversized  (** request line exceeded the server's byte limit *)
  | Overloaded  (** admission queue full; carries [retry_after_ms] *)
  | Draining  (** server is shutting down gracefully *)
  | Internal  (** isolated server-side failure *)

val error_code_name : error_code -> string
val error_code_of_name : string -> error_code option

(** {1 Requests} *)

val optimize :
  ?id:string ->
  ?goal:[ `Size | `Depth | `Activity | `Search ] ->
  ?effort:int ->
  ?beam:int ->
  ?timeout_s:float ->
  ?max_nodes:int ->
  ?fault:string ->
  ?emit:[ `None | `Blif ] ->
  ?stats:bool ->
  circuit ->
  req
(** Request builder with the protocol defaults (goal [`Size], effort
    2, beam 2, no budget, no fault, [`None] emit, stats off). *)

val request_to_json : req -> Lsutil.Json.t

val parse_request : string -> (req, error_code * string) result
(** Parse and decode one request line; a parse failure is a
    [Protocol] error carrying the positioned diagnostic, invalid
    content a [Bad_request]. *)

(** {1 Response frames} *)

type result_frame = {
  r_id : string option;
  size_in : int;
  depth_in : int;
  size_out : int;
  depth_out : int;
  degraded : bool;  (** budget/fault forced a best-so-far answer *)
  verified : bool;  (** final graph lint-clean and miter-equivalent *)
  rollbacks : int;
  time_s : float;
  blif : string option;  (** only when requested {e and} verified *)
  report : Lsutil.Json.t;  (** the full engine report *)
}

val result_to_json : result_frame -> Lsutil.Json.t

val telemetry_to_json :
  ?id:string -> event:string -> (string * Lsutil.Json.t) list -> Lsutil.Json.t

val error_to_json :
  ?id:string -> ?retry_after_ms:int -> error_code -> string -> Lsutil.Json.t

val pong_to_json :
  queue_depth:int ->
  queue_capacity:int ->
  workers:int ->
  served:int ->
  active:int ->
  draining:bool ->
  Lsutil.Json.t

(** {1 Client-side frame decoding} *)

type frame =
  | Telemetry of { f_id : string option; event : string; body : Lsutil.Json.t }
  | Result of result_frame
  | Error_frame of {
      e_id : string option;
      code : error_code;
      message : string;
      retry_after_ms : int option;
    }
  | Pong of Lsutil.Json.t

val decode_frame : Lsutil.Json.t -> (frame, string) result

val validate_frame : Lsutil.Json.t -> (unit, string) result
(** The response linter: checks the frame against the schema the
    daemon promises (schema tag, known type, required fields with the
    right JSON types).  The load harness and CI assert every received
    frame passes. *)
