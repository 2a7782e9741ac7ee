#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments (see README.md).  Run from the repository root.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . --display quiet bench/e2e/morphbench.exe >&2
exec ./_build/default/bench/e2e/morphbench.exe "$@"
