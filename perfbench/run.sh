#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last line of standard output is the JSON result; see perfbench/NOTES.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
# No shared build cache: a run writes only inside its checkout.
DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
