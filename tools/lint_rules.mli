(** AST-accurate source lint (rules SRC001..SRC007).

    Parses an implementation file with compiler-libs and walks the
    Parsetree, so spacing, annotations and line breaks cannot hide an
    offender and comments cannot fake one.  Each rule has a stable
    code and a path scope (most bind only under [lib/]); a file opts
    out with a floating [@@@san.allow "SRC00x"] attribute. *)

type finding = {
  code : string;  (** stable rule code, ["SRC001"].."SRC006" *)
  file : string;  (** path as given to {!lint_file} *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler messages *)
  message : string;
}

type rule = { code : string; title : string; descr : string }

val catalog : rule list
(** Every rule, in code order. *)

val applies : string -> string -> bool
(** [applies code path] — whether a rule binds at a path.  The path
    is normalized first ([./] prefixes stripped, absolute paths
    anchored at their [lib/]/[bin/]/[bench/]/[test/]/[tools/]
    component).  Exposed for the test-suite's scope checks. *)

val lint_file : ?scope_path:string -> string -> (finding list, string) result
(** Parse and analyze one [.ml] file.  [scope_path] overrides the
    path used for rule scoping (defaults to the file's own path) so
    fixtures outside [lib/] can exercise lib-scoped rules.  [Error]
    carries an unreadable-file or parse-error description. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col: CODE: message] — compiler-style, click-through. *)

val to_json : finding list -> Lsutil.Json.t
(** The [mighty-check/1] findings document. *)
