#!/usr/bin/env bash
# Builds the `faerie` CLI and the benchmark from source, then runs the
# benchmark with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./bin/faerie_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --serve ./_build/default/bin/faerie_cli.exe "$@"
