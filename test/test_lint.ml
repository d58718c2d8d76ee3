(* The AST source linter (tools/lint_rules.ml) over the fixtures in
   test/lint_fixtures/: each SRC code fires exactly once on its
   fixture, the two regex-miss regressions are caught, suppression
   attributes and path scoping behave. *)

module L = Lint_rules

let fixture name = Filename.concat "lint_fixtures" name

(* fixtures live outside lib/, so lib-scoped rules are exercised by
   pinning the scope path *)
let lint ?(scope = "lib/fixture/case.ml") name =
  match L.lint_file ~scope_path:scope (fixture name) with
  | Ok fs -> fs
  | Error e -> Alcotest.failf "lint_file %s: %s" name e

let codes fs = List.map (fun (f : L.finding) -> f.L.code) fs

let expect_one name code =
  let fs = lint name in
  Alcotest.(check (list string))
    (name ^ " fires " ^ code ^ " exactly once")
    [ code ] (codes fs)

(* ----- one fixture, one finding, stable code ----- *)

let test_each_code () =
  (* regression: `let counter=ref 0` (no spaces) slipped past the old
     regex linter's mandatory ` = ` *)
  expect_one "src001_nospace.ml" "SRC001";
  (* regression: the annotated form confused the regex's [^=]* type
     matcher; the AST rule peels the constraint *)
  expect_one "src001_annot.ml" "SRC001";
  expect_one "src002_spawn.ml" "SRC002";
  expect_one "src003_clock.ml" "SRC003";
  expect_one "src004_magic.ml" "SRC004";
  expect_one "src005_catchall.ml" "SRC005";
  expect_one "src006_getenv.ml" "SRC006";
  expect_one "src007_socket.ml" "SRC007"

let test_positions () =
  match lint "src004_magic.ml" with
  | [ f ] ->
      Alcotest.(check int) "line" 1 f.L.line;
      Alcotest.(check int) "col" 32 f.L.col;
      Alcotest.(check string) "file is the real path" (fixture "src004_magic.ml")
        f.L.file
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_clean_fixture () =
  (* function-local ref/Hashtbl, named exception handler, offending
     names only in comments: nothing may fire *)
  Alcotest.(check (list string)) "clean fixture" [] (codes (lint "clean.ml"))

let test_suppression () =
  (* same Obj.magic as src004_magic.ml, but under [@@@san.allow] *)
  Alcotest.(check (list string))
    "[@@@san.allow \"SRC004\"] silences the rule" []
    (codes (lint "suppressed.ml"));
  Alcotest.(check (list string))
    "[@@@san.allow \"SRC007\"] silences the socket rule" []
    (codes (lint "src007_suppressed.ml"))

(* ----- path scoping ----- *)

let test_scoping () =
  let t = Alcotest.(check bool) in
  (* lib-only rules are silent outside lib/ *)
  t "SRC001 binds in lib/" true (L.applies "SRC001" "lib/util/vec.ml");
  t "SRC001 silent in bench/" false (L.applies "SRC001" "bench/main.ml");
  t "SRC005 silent in bin/" false (L.applies "SRC005" "bin/mighty.ml");
  (* capability owners are exempt by path *)
  t "SRC006 exempts Lsutil.Env" false (L.applies "SRC006" "lib/util/env.ml");
  t "SRC006 binds elsewhere in lib/" true (L.applies "SRC006" "lib/util/vec.ml");
  t "SRC002 exempts Flow.Batch" false (L.applies "SRC002" "lib/flow/batch.ml");
  t "SRC002 binds in Flow.Par (it runs on Batch.pmap)" true
    (L.applies "SRC002" "lib/flow/par.ml");
  t "SRC002 binds outside lib/ too" true (L.applies "SRC002" "test/test_foo.ml");
  t "SRC003 exempts Budget" false (L.applies "SRC003" "lib/util/budget.ml");
  t "SRC003 exempts Telemetry" false
    (L.applies "SRC003" "lib/util/telemetry.ml");
  t "SRC003 silent outside lib/" false (L.applies "SRC003" "bench/main.ml");
  (* SRC004 is repo-wide *)
  t "SRC004 binds in bench/" true (L.applies "SRC004" "bench/main.ml");
  (* the serve layer owns the network surface *)
  t "SRC007 binds in lib/" true (L.applies "SRC007" "lib/util/vec.ml");
  t "SRC007 binds in bin/" true (L.applies "SRC007" "bin/mighty.ml");
  t "SRC007 exempts lib/serve/" false
    (L.applies "SRC007" "lib/serve/server.ml");
  t "SRC007 exempts test_serve" false
    (L.applies "SRC007" "test/test_serve.ml");
  t "SRC007 binds in other tests" true
    (L.applies "SRC007" "test/test_par.ml");
  t "SRC002 exempts the serve daemon" false
    (L.applies "SRC002" "lib/serve/server.ml");
  t "SRC002 exempts the load harness" false
    (L.applies "SRC002" "lib/serve/load.ml");
  (* a ./ prefix or absolute path scopes like the relative one *)
  t "./ prefix normalized" true (L.applies "SRC001" "./lib/util/vec.ml");
  t "absolute path normalized" false
    (L.applies "SRC006" "/root/repo/lib/util/env.ml")

(* ----- the scoped default: fixtures by their own path ----- *)

let test_own_path_scope () =
  (* linted at its real (non-lib) path, a lib-only rule stays silent
     while the repo-wide one still fires *)
  match L.lint_file (fixture "src001_nospace.ml") with
  | Ok fs -> Alcotest.(check (list string)) "SRC001 silent outside lib/" [] (codes fs)
  | Error e -> Alcotest.fail e

(* ----- registry coherence ----- *)

let test_catalog () =
  let lint_codes = List.map (fun r -> r.L.code) L.catalog in
  Alcotest.(check (list string))
    "stable codes, in order"
    [ "SRC001"; "SRC002"; "SRC003"; "SRC004"; "SRC005"; "SRC006"; "SRC007" ]
    lint_codes;
  (* every SRC and SAN code is registered in the Check rule registry
     alongside the structural MIG/AIG/NET rules *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " in Check.Rules.all") true (Check_rules.mem c))
    (lint_codes
    @ [ "SAN001"; "SAN002"; "SAN003"; "SAN004"; "SAN005"; "SAN006" ]);
  (* the domain-spawn rule states the same scope in both registries *)
  Alcotest.(check (option string))
    "SRC002 title agrees with Check.Rules"
    (Some (List.find (fun r -> r.L.code = "SRC002") L.catalog).L.title)
    (Check_rules.describe "SRC002")

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "each code fires exactly once" `Quick
            test_each_code;
          Alcotest.test_case "finding positions" `Quick test_positions;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "suppression attribute" `Quick test_suppression;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "applies matrix" `Quick test_scoping;
          Alcotest.test_case "own-path default" `Quick test_own_path_scope;
        ] );
      ("registry", [ Alcotest.test_case "catalog" `Quick test_catalog ]);
    ]
