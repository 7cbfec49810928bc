#!/usr/bin/env bash
# Build the server and the benchmark from source in this checkout, then
# run one benchmark invocation. Arguments pass through to perfbench.exe:
#
#   bash perfbench/run.sh --workload search-100k --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every file the build writes inside the checkout
export DUNE_CACHE=disabled
mkdir -p _build
export TMPDIR="$PWD/_build"
dune build --root . ./bin/xrefine.exe ./perfbench/src/perfbench.exe 1>&2
exec ./_build/default/perfbench/src/perfbench.exe "$@"
