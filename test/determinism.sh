#!/bin/sh
# Determinism smokes: serve, fleet, decode and trace output must be the
# same bytes on a repeated run and under another worker count
# (ASCEND_JOBS).  Any difference stops the script with cmp's message.
#
#   sh test/determinism.sh path/to/ascend_cli.exe
#
# `make differential` runs it; the documents are left in the working
# directory as det_*.json, and the gesture trace as trace.json.
set -eu
cli=$1

# json OUT ARGS...: one run of the CLI, its JSON document written to OUT
json() {
  out=$1
  shift
  "$cli" "$@" --json "$out" > /dev/null
}

# $serve, $fleet, ... split into words on purpose
serve="serve gesture --core tiny --rate 500 --duration 0.2"
json det_serve_a.json $serve
json det_serve_b.json $serve
cmp det_serve_a.json det_serve_b.json
echo "determinism: serve"

json det_serve_surr_a.json $serve --costing surrogate
json det_serve_surr_b.json $serve --costing surrogate
cmp det_serve_surr_a.json det_serve_surr_b.json
fleet="fleet gesture,face-detect --core tiny --nodes 4 --replicas 0,1 --duration 0.2"
json det_fleet_surr_a.json $fleet --costing surrogate
json det_fleet_surr_b.json $fleet --costing surrogate
cmp det_fleet_surr_a.json det_fleet_surr_b.json
echo "determinism: surrogate-costed serve and fleet"

decode="decode --core lite --rate 2000 --duration 0.05"
json det_decode_a.json $decode --mode compare
json det_decode_b.json $decode --mode compare
cmp det_decode_a.json det_decode_b.json
ASCEND_JOBS=7 "$cli" $decode --mode compare --json det_decode_jobs.json \
  > /dev/null
cmp det_decode_a.json det_decode_jobs.json
echo "determinism: decode, across runs and jobs"

trace="trace gesture --core tiny"
"$cli" $trace -o trace.json > /dev/null
python3 -m json.tool trace.json > /dev/null
"$cli" $trace -o det_trace_again.json > /dev/null
cmp trace.json det_trace_again.json
ASCEND_JOBS=7 "$cli" $trace -o det_trace_jobs.json > /dev/null
cmp trace.json det_trace_jobs.json
echo "determinism: trace is valid JSON, across runs and jobs"

json det_fleet_a.json $fleet
json det_fleet_b.json $fleet
cmp det_fleet_a.json det_fleet_b.json
ASCEND_JOBS=7 "$cli" $fleet --json det_fleet_jobs.json > /dev/null
cmp det_fleet_a.json det_fleet_jobs.json
# colocated training prices its step through the process-wide service
ASCEND_JOBS=1 "$cli" $fleet --train-nodes 2 --json det_fleet_train_j1.json \
  > /dev/null
ASCEND_JOBS=7 "$cli" $fleet --train-nodes 2 --json det_fleet_train_j7.json \
  > /dev/null
cmp det_fleet_train_j1.json det_fleet_train_j7.json
echo "determinism: fleet, across runs and jobs, with colocated training"
