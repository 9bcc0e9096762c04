#!/bin/sh
# Build the benchmark driver from this checkout's sources, then run it
# with the given arguments, e.g.
#   sh perfbench/run.sh --workload k15_basic --seed 1 --seconds 30 --trace 0
# Build output goes to _build/ (release profile); dune's shared cache is
# not used, so nothing is written outside the checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --profile release \
  ./perfbench/driver.exe 1>&2
exec ./_build/default/perfbench/driver.exe "$@"
