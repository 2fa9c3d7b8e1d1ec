#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments (see benchmark/README.md).  Build output goes to stderr, so
# the last line on stdout is the benchmark's result object.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
