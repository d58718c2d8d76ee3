.PHONY: all build test check lint bench bench-full examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# full build + structural linter smoke run + test-suite (CI entry point)
check:
	dune build @check && dune runtest

# regenerate every table and figure of the paper
bench:
	dune exec bench/main.exe

# the compression benchmark at paper scale (~0.3M nodes)
bench-full:
	MIG_BENCH_FULL=1 dune exec bench/main.exe -- compress

examples:
	dune exec examples/quickstart.exe
	dune exec examples/datapath.exe
	dune exec examples/synthesis_flow.exe
	dune exec examples/emerging_tech.exe

clean:
	dune clean

# AST source lint (rules SRC001..SRC007) over every OCaml source dir;
# also runs as part of `dune build @check`
lint:
	dune exec tools/lint_src.exe -- lib bin bench tools test
