#!/usr/bin/env bash
# Builds the benchmark suite from the sources of this checkout and runs
# it, passing every argument through:
#
#   bash benchsuite/run.sh --workload NAME --seed S --seconds T --trace 0|1
#   bash benchsuite/run.sh --seed S            # all four workloads
#
# Build output stays inside the checkout (_build/, no shared dune cache).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $root holds no simulator sources (dune-project, lib/)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true

export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchsuite/suite.exe 1>&2
exec ./_build/default/benchsuite/suite.exe "$@"
