#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments,
# from the root of a checkout:
#   bash bench/perf/run.sh --workload serve-closed-pricing --seed 0 --seconds 20 --trace 0
# The build stays inside the checkout (_build, no shared dune cache); its
# log goes to stderr so that stdout ends with the benchmark's result line.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display=quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
