#!/usr/bin/env bash
# Build the benchmark and the daemon it drives (release profile), then run
# it.  Run from the root of a checkout:
#   bash perfbench/run.sh --workload scan|watch|all --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selfcheck
set -u
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 2
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: $root is not a proxion source tree (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
if ! dune build --root . --profile release \
    ./perfbench/perfbench.exe ./bin/proxion_cli.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
