.PHONY: all build test lint lint-cluster sanitize differential bench trace \
	fleet decode calibrate calibrate-decode check clean

all: build

build:
	dune build @all

test:
	dune runtest

# static happens-before / hazard lint of the whole model zoo across all
# core versions and codegen option combinations (non-zero exit on findings)
lint:
	dune exec bin/ascend_cli.exe -- lint --all

# static cluster-collective verification: expand ring / halving-doubling /
# intra-server / hierarchical all-reduce into per-chip step schedules,
# check matching / deadlock / link overcommit / completeness, and hold
# the schedule-derived time within 1e-6 of the closed-form cost model
lint-cluster:
	dune exec bin/ascend_cli.exe -- lint --cluster

# replay the whole zoo through the shadow-state sanitizer (non-zero exit
# on errors; --strict would fail on warnings too)
sanitize:
	dune exec bin/ascend_cli.exe -- sanitize --all

# differential gates (CI runs this target): (a) the static whole-SoC
# lint and the dynamic sanitizer agree byte-for-byte on the zoo-wide
# findings document, which is the same under --jobs 1 (lint) and
# --jobs 4 (sanitize) as at the default pool size, and a verbose lint
# prints the same at --jobs 1 and --jobs 4; (b) the cluster
# sweep's findings document is the same across runs and worker counts,
# and closed-form and schedule-derived collective times agree to three
# significant digits; (c) statically predicted page-in counts equal
# what the fleet run observes, under each routing policy; (d) serve
# with K cores and a one-node fleet with K cores per node agree on
# metrics, batch count, cost_cache and config
differential:
	dune exec bin/ascend_cli.exe -- lint --all --soc --json lint_soc.json
	dune exec bin/ascend_cli.exe -- lint --all --soc --jobs 1 \
	  --json lint_soc_j1.json
	cmp lint_soc.json lint_soc_j1.json
	dune exec bin/ascend_cli.exe -- sanitize --all --json sanitize.json
	cmp lint_soc.json sanitize.json
	dune exec bin/ascend_cli.exe -- sanitize --all --jobs 4 \
	  --json sanitize_j4.json
	cmp sanitize.json sanitize_j4.json
	dune exec bin/ascend_cli.exe -- lint resnet18 --jobs 1 --verbose \
	  > lint_j1.txt
	dune exec bin/ascend_cli.exe -- lint resnet18 --jobs 4 --verbose \
	  > lint_j4.txt
	cmp lint_j1.txt lint_j4.txt
	@echo "differential gate: lint --soc, sanitize and verbose lint agree, at any --jobs"
	dune exec bin/ascend_cli.exe -- lint --cluster --json cluster_a.json
	dune exec bin/ascend_cli.exe -- lint --cluster --json cluster_b.json
	cmp cluster_a.json cluster_b.json
	ASCEND_JOBS=7 dune exec bin/ascend_cli.exe -- lint --cluster --jobs 7 \
	  --json cluster_jobs.json
	cmp cluster_a.json cluster_jobs.json
	@echo "differential gate: the cluster sweep agrees across runs and --jobs"
	dune exec bin/ascend_cli.exe -- lint --cluster --times closed \
	  --json times_closed.json
	dune exec bin/ascend_cli.exe -- lint --cluster --times schedule \
	  --json times_schedule.json
	cmp times_closed.json times_schedule.json
	@echo "differential gate: closed-form and schedule-derived times agree"
	set -e; for policy in round-robin affinity; do \
	  dune exec bin/ascend_cli.exe -- lint --placement gesture,face-detect \
	    --replicas 0,1 --nodes 3 --policy $$policy \
	    --pagein-json pagein_predicted_$$policy.json; \
	  dune exec bin/ascend_cli.exe -- fleet gesture,face-detect --core tiny \
	    --nodes 3 --policy $$policy --replicas 0,1 --rate 300 \
	    --duration 0.2 --pagein-json pagein_observed_$$policy.json; \
	  cmp pagein_predicted_$$policy.json pagein_observed_$$policy.json; \
	done
	@echo "differential gate: predicted and observed page-ins agree"
	dune build bin/ascend_cli.exe
	sh test/serve_fleet_differential.sh ./_build/default/bin/ascend_cli.exe
	@echo "differential gate: serve and a one-node fleet agree"

bench:
	dune exec bench/main.exe

# capture a whole-model Chrome trace (open trace.json in Perfetto or
# chrome://tracing); deterministic to the byte across runs
trace:
	dune exec bin/ascend_cli.exe -- trace resnet18 --core standard -o trace.json

# simulate the multi-node inference fleet (deterministic to the byte
# across runs and ASCEND_JOBS; see `ascend_cli fleet --help` for the
# routing / replication / colocation knobs)
fleet:
	dune exec bin/ascend_cli.exe -- fleet gesture,face-detect --core tiny \
	  --nodes 4 --replicas 0,1 --train-nodes 2

# score the batch-latency surrogate against the exact cycle-level oracle
# for every model/core combination in the zoo (non-zero exit when any
# model's max cycle error exceeds the 5% budget)
calibrate:
	dune exec bin/ascend_cli.exe -- calibrate --all --json calibrate.json

# score the 2-D (batch x cache-length) decode-step surrogate against the
# exact oracle on every fp16-capable core (non-zero exit past the 5% budget)
calibrate-decode:
	dune exec bin/ascend_cli.exe -- calibrate --decode \
	  --json calibrate_decode.json

# LLM decode serving under prefill pressure: continuous vs static
# batching on the same seeded trace, with the goodput speedup reported
# (deterministic to the byte across runs and ASCEND_JOBS)
decode:
	dune exec bin/ascend_cli.exe -- decode --core lite --rate 2000 \
	  --duration 0.05 --mode compare

check: build test lint lint-cluster sanitize decode calibrate-decode

clean:
	dune clean
