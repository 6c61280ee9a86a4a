#!/usr/bin/env bash
# Build the benchmark and the syno CLI from source, then run one
# workload:
#   bash perfbench/run.sh --workload search|train|serve --seed N --seconds S --trace 0|1
# Everything is written inside the checkout: dune's shared cache is off
# and temporary files go under perfbench-out/.  Build output goes to
# stderr; the last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p perfbench-out/tmp
export TMPDIR="$PWD/perfbench-out/tmp" DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/syno_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
