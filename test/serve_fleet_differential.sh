#!/bin/sh
# Serve/fleet differential: `serve ARGS --cores K` and `fleet ARGS
# --nodes 1 --cores-per-node K` must agree on metrics (fleet:
# fleet.metrics), batches.count, cost_cache and config (serve's cores =
# fleet's cores_per_node), case by case.  A `--costing surrogate` case
# must also report the same metrics and batches as its serve command
# under `--costing exact`: the surrogate answers from a table of exact
# prices.
#
#   sh test/serve_fleet_differential.sh path/to/ascend_cli.exe
#
# `make differential` runs it; the JSON pairs are left in the working
# directory as diff_serve_N.json / diff_fleet_N.json, and a surrogate
# case's exact-costed serve run as diff_serve_N_exact.json.
set -eu
cli=$1
i=0
serves=
# one case per line: K, then the arguments both commands share
while read -r cores args; do
  i=$((i + 1))
  # $args splits into words on purpose
  $cli serve $args --cores "$cores" --json "diff_serve_$i.json" > /dev/null
  $cli fleet $args --nodes 1 --cores-per-node "$cores" \
    --json "diff_fleet_$i.json" > /dev/null
  case $args in
  *"--costing surrogate"*)
    exact="diff_serve_${i}_exact.json"
    $cli serve $(echo "$args" | sed 's/--costing surrogate/--costing exact/') \
      --cores "$cores" --json "$exact" > /dev/null
    serves="$serves diff_serve_$i.json=$exact"
    ;;
  *) serves="$serves diff_serve_$i.json" ;;
  esac
done <<'CASES'
2 gesture --core tiny --rate 500 --duration 0.2
2 gesture,face-detect --core tiny --rate 800,400 --priority 5,0 --slo-ms 10,50 --process bursty --duration 0.2
2 gesture,face-detect --core tiny --rate 2000 --process uniform --duration 0.2
1 gesture,face-detect --core tiny --rate 20000 --process uniform --duration 0.2
2 gesture,face-detect --core tiny --closed 6 --think-ms 1 --duration 0.2
2 gesture,face-detect --core tiny --rate 600 --costing surrogate --duration 0.2
CASES
# $serves splits into words on purpose
python3 - $serves <<'EOF'
import json, sys
for arg in sys.argv[1:]:
    serve_path, _, exact_path = arg.partition("=")
    fleet_path = serve_path.replace("diff_serve_", "diff_fleet_")
    s, f = (json.load(open(p)) for p in (serve_path, fleet_path))
    config = {k: v for k, v in s["config"].items() if k != "cores"}
    pairs = {
        "metrics": (s["metrics"], f["fleet"]["metrics"]),
        "batches.count": (s["batches"]["count"], f["batches"]["count"]),
        "cost_cache": (s["cost_cache"], f["cost_cache"]),
        "config": (config, {k: f["config"][k] for k in config}),
        "cores": (s["config"]["cores"], f["config"]["cores_per_node"]),
    }
    if exact_path:
        e = json.load(open(exact_path))
        pairs["metrics under exact costing"] = (s["metrics"], e["metrics"])
        pairs["batches under exact costing"] = (s["batches"], e["batches"])
    bad = [k for k, (a, b) in pairs.items() if a != b]
    print(serve_path, fleet_path, exact_path,
          "differ in " + ", ".join(bad) if bad else "agree")
    if bad:
        sys.exit(1)
EOF
