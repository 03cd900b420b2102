#!/usr/bin/env bash
# Build the benchmark from the checkout it runs in, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if [ ! -f dune-project ]; then
  echo "perfbench: run from a checkout of the repository (no dune-project here)" >&2
  exit 2
fi
dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/main.exe 1>&2
exec ./.bench_build/default/perfbench/main.exe "$@"
