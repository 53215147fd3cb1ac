#!/bin/sh
# Builds the benchmark from source in the current checkout and runs it:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The dune cache is off so that nothing is written outside the checkout.
set -e
dune build --root . --cache=disabled --display=quiet ./perfbench/bench.exe
exec ./_build/default/perfbench/bench.exe "$@"
