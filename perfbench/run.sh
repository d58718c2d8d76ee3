#!/usr/bin/env bash
# Build the benchmark from source, then run it.  Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload table1-depth --seed 1 --seconds 20 --trace 0
#
# Build output goes to standard error; the last line of standard output
# is the JSON result.  A failed build exits non-zero without a result.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1; then
  for bin in "$HOME"/.opam/*/bin; do
    [ -x "$bin/dune" ] && PATH="$bin:$PATH" && break
  done
fi

dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
