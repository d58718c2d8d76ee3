(* AST-accurate source lint over compiler-libs Parsetree.

   Replaces the regex linter (tools/lint_globals.ml): matching on the
   parsed AST instead of line shapes means `let x=ref 0` (no spaces),
   `let x : int ref = ref 0` (annotated) and multi-line bindings are
   all caught, while commented-out code and string literals never
   false-positive.

   Rules carry stable codes (SRC001..SRC007) so CI can diff findings
   across runs; a file opts out of a rule with a floating attribute
   [@@@san.allow "SRC00x"].  Each rule has a path scope — most only
   bind inside lib/ (executables and benches keep their freedom), and
   the module that legitimately owns a capability is exempted by
   path (Lsutil.Env for getenv, Flow.Batch for Domain.spawn, ...).

   Only the Parsetree constructors stable across 5.1/5.2 are matched
   (Pexp_ident, Pexp_apply, Pexp_try, Pstr_value, Pstr_attribute);
   the function-expression constructors that merged in 5.2 are
   deliberately avoided. *)

type finding = {
  code : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

type rule = { code : string; title : string; descr : string }

let catalog =
  [
    {
      code = "SRC001";
      title = "top-level mutable singleton";
      descr =
        "structure-level binding to ref/Hashtbl.create/Atomic.make: \
         process-global service state must live in Lsutil.Ctx (DESIGN.md \
         \xc2\xa713); applies under lib/";
    };
    {
      code = "SRC002";
      title = "Domain.spawn outside Flow.Batch and the serve daemon";
      descr =
        "domains are spawned only by the one domain pool (Flow.Batch.pmap, \
         which Flow.Par also runs on) and the serve daemon so ownership \
         handoff stays auditable; exempt: lib/flow/batch.ml, \
         lib/serve/server.ml, lib/serve/load.ml, test/test_serve.ml, and \
         test/test_par.ml (concurrent strash-segment hammering needs raw \
         domains)";
    };
    {
      code = "SRC003";
      title = "raw wall-clock read";
      descr =
        "Unix.gettimeofday/Unix.time/Sys.time outside Budget/Telemetry: \
         library timing goes through Lsutil.Telemetry.time so spans nest \
         and deadlines stay centralized; applies under lib/";
    };
    {
      code = "SRC004";
      title = "Obj.magic";
      descr =
        "unsound coercion; the Vec representation history (lib/util/vec.ml) \
         is why this is banned repo-wide";
    };
    {
      code = "SRC005";
      title = "catch-all exception handler";
      descr =
        "`with _ ->` in lib/ swallows Budget.Exhausted, San.Violation and \
         asserts alike; match specific exceptions or use Fun.protect";
    };
    {
      code = "SRC006";
      title = "Sys.getenv outside Lsutil.Env";
      descr =
        "environment is read once at startup into Lsutil.Env.t and carried \
         in the ctx; applies under lib/, exempt: lib/util/env.ml";
    };
    {
      code = "SRC007";
      title = "raw socket call outside lib/serve";
      descr =
        "Unix.socket/bind/listen/accept/connect/... belong to the serve \
         layer, whose framing, admission control and fault isolation are \
         the audited network surface (DESIGN.md \xc2\xa717); applies \
         repo-wide, exempt: lib/serve/ and test/test_serve.ml (protocol \
         fuzzing needs raw sockets)";
    };
  ]

(* ----- path scoping ----- *)

let norm path =
  let path =
    if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  (* make absolute invocations scope like relative ones *)
  match String.index_opt path '/' with
  | Some _ when Filename.is_relative path -> path
  | _ -> (
      let rec find_anchor p acc =
        let base = Filename.basename p and dir = Filename.dirname p in
        if dir = p then acc
        else
          let acc = if acc = "" then base else base ^ "/" ^ acc in
          match base with
          | "lib" | "bin" | "bench" | "test" | "tools" -> acc
          | _ -> find_anchor dir acc
      in
      match find_anchor path "" with "" -> path | p -> p)

let in_lib p =
  String.length p >= 4 && String.sub p 0 4 = "lib/"

let applies code p =
  let p = norm p in
  match code with
  | "SRC001" | "SRC005" -> in_lib p
  | "SRC002" ->
      p <> "lib/flow/batch.ml" && p <> "lib/serve/server.ml"
      && p <> "lib/serve/load.ml" && p <> "test/test_par.ml"
      && p <> "test/test_serve.ml"
  | "SRC003" ->
      in_lib p && p <> "lib/util/budget.ml" && p <> "lib/util/telemetry.ml"
  | "SRC004" -> true
  | "SRC006" -> in_lib p && p <> "lib/util/env.ml"
  | "SRC007" ->
      (String.length p < 10 || String.sub p 0 10 <> "lib/serve/")
      && p <> "test/test_serve.ml"
  | _ -> false

(* ----- the analysis ----- *)

open Parsetree

let lid_name lid = String.concat "." (Longident.flatten lid)

(* fully-qualified idents that are findings wherever their rule binds *)
let banned_idents =
  [
    ("Obj.magic", "SRC004", "Obj.magic: unsound coercion");
    ( "Domain.spawn",
      "SRC002",
      "Domain.spawn outside Flow.Batch/Flow.Par: spawn workers via the \
       parallel drivers so sanitizer ownership handoff stays auditable" );
    ( "Unix.gettimeofday",
      "SRC003",
      "raw wall-clock read: use Lsutil.Telemetry.time (or Budget deadlines)" );
    ( "Unix.time",
      "SRC003",
      "raw wall-clock read: use Lsutil.Telemetry.time (or Budget deadlines)" );
    ( "Sys.time",
      "SRC003",
      "raw cpu-clock read: use Lsutil.Telemetry.time (or Budget deadlines)" );
    ( "Sys.getenv",
      "SRC006",
      "environment read outside Lsutil.Env: add the variable to Env.base" );
    ( "Sys.getenv_opt",
      "SRC006",
      "environment read outside Lsutil.Env: add the variable to Env.base" );
  ]
  @ List.map
      (fun fn ->
        ( "Unix." ^ fn,
          "SRC007",
          "raw socket call outside lib/serve: the serve layer owns the \
           network surface (framing, admission control, fault isolation)" ))
      [
        "socket"; "socketpair"; "bind"; "listen"; "accept"; "connect";
        "shutdown";
      ]

(* constructors of module-level mutable state for SRC001 *)
let singleton_makers = [ "ref"; "Hashtbl.create"; "Atomic.make" ]

let rec peel_constraint e =
  match e.pexp_desc with
  | Pexp_constraint (e', _) -> peel_constraint e'
  | _ -> e

let mk ~file ~allowed loc code message acc =
  if Hashtbl.mem allowed code then acc
  else
    let p = loc.Location.loc_start in
    {
      code;
      file;
      line = p.Lexing.pos_lnum;
      col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      message;
    }
    :: acc

(* payload of [@@@san.allow "SRC001"] / [@@@san.allow ("SRC001", "SRC002")] *)
let allow_codes attr =
  if attr.attr_name.Location.txt <> "san.allow" then []
  else
    let rec of_expr e =
      match e.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
      | Pexp_tuple es -> List.concat_map of_expr es
      | _ -> []
    in
    match attr.attr_payload with
    | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> of_expr e
    | _ -> []

let analyze ~scope ~file str =
  let scope = norm scope in
  let allowed = Hashtbl.create 4 in
  (* suppression attributes apply file-wide, wherever they appear *)
  let rec collect_allows items =
    List.iter
      (fun it ->
        match it.pstr_desc with
        | Pstr_attribute a ->
            List.iter (fun c -> Hashtbl.replace allowed c ()) (allow_codes a)
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
            collect_allows s
        | _ -> ())
      items
  in
  collect_allows str;
  let findings = ref [] in
  let emit loc code message =
    if applies code scope then
      findings := mk ~file ~allowed loc code message !findings
  in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        let name = lid_name txt in
        match
          List.find_opt (fun (n, _, _) -> n = name) banned_idents
        with
        | Some (_, code, msg) -> emit loc code msg
        | None -> ())
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            match (c.pc_lhs.ppat_desc, c.pc_guard) with
            | Ppat_any, None ->
                emit c.pc_lhs.ppat_loc "SRC005"
                  "catch-all `with _ ->`: swallows Budget.Exhausted and \
                   San.Violation; match specific exceptions"
            | _ -> ())
          cases
    | _ -> ());
    super.expr it e
  in
  let structure_item it item =
    (match item.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match (peel_constraint vb.pvb_expr).pexp_desc with
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
              when List.mem (lid_name txt) singleton_makers ->
                emit vb.pvb_loc "SRC001"
                  (Printf.sprintf
                     "top-level mutable singleton (%s): services must live \
                      in Lsutil.Ctx, not module state"
                     (lid_name txt))
            | _ -> ())
          vbs
    | _ -> ());
    super.structure_item it item
  in
  let it = { super with expr; structure_item } in
  it.structure it str;
  List.rev !findings

let lint_file ?scope_path path =
  let scope = match scope_path with Some p -> p | None -> path in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lexbuf = Lexing.from_channel ic in
        Location.init lexbuf path;
        Parse.implementation lexbuf)
  with
  | str -> Ok (analyze ~scope ~file:path str)
  | exception Sys_error msg -> Error msg
  | exception exn ->
      Error
        (Printf.sprintf "%s: parse error (%s)" path
           (match Location.error_of_exn exn with
           | Some (`Ok e) ->
               Format.asprintf "%a" Location.print_report e
           | _ -> Printexc.to_string exn))

(* ----- reporting ----- *)

let pp_finding fmt (f : finding) =
  Format.fprintf fmt "%s:%d:%d: %s: %s" f.file f.line f.col f.code f.message

module J = Lsutil.Json

let finding_to_json (f : finding) =
  J.Obj
    [
      ("code", J.String f.code);
      ("file", J.String f.file);
      ("line", J.Int f.line);
      ("col", J.Int f.col);
      ("message", J.String f.message);
    ]

let to_json findings =
  J.Obj
    [
      ("schema", J.String "mighty-check/1");
      ("tool", J.String "lint_src");
      ("count", J.Int (List.length findings));
      ("findings", J.List (List.map finding_to_json findings));
    ]
