#!/bin/sh
# Bad input to the two command-line tools: every case below must print
# exactly one "error:" line on stderr and exit 1 (README.md has the
# exit-code table); a core that cannot run the model's dtype is named
# as such, and a command line that does not parse exits 124.  Then a
# differential whose sides must agree to the byte.
#
#   sh test/cli_errors.sh path/to/ascend_cli.exe path/to/bench/main.exe
#
# `dune runtest` runs it on the freshly built binaries; CI runs it too.
set -u
abs() { (cd "$(dirname "$1")" && echo "$(pwd)/$(basename "$1")"); }
cli=$(abs "$1")
bench=$(abs "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
fail=0

# one case per line on stdin: the tool, then its arguments.  Each must
# exit 1 with one stderr line matching the pattern $1.  Output paths
# under missing/ name a directory that does not exist.  A bench case
# must also run no section: nothing on stdout, no BENCH_*.json written.
check() {
  while read -r tool args; do
    case $tool in
    cli) bin=$cli ;;
    bench) bin=$bench ;;
    esac
    status=0
    # $args splits into words on purpose
    $bin $args < /dev/null > out 2> err || status=$?
    if [ "$status" -ne 1 ] || [ "$(wc -l < err)" -ne 1 ] \
      || ! grep -q "$1" err \
      || { [ "$tool" = bench ] && { [ -s out ] || ls BENCH_*.json > /dev/null 2>&1; }; }
    then
      echo "FAIL (exit $status): $tool $args"
      cat err
      fail=1
    fi
  done
}

check '^error:' <<'CASES'
cli serve gesture,gesture --core tiny
cli serve gesture --core tiny --duration 0.05 --json missing/x.json
cli serve gesture --core tiny --duration 0.05 --trace missing/x.json
cli fleet gesture --core tiny --duration 0.05 --pagein-json missing/x.json
cli decode --core lite --duration 0.02 --json missing/x.json
cli trace gesture --core tiny -o missing/x.json
cli lint gesture --core tiny --json missing/x.json
cli lint
cli sanitize
cli lint --placement gesture --replicas 0,1 --nodes 2
bench nosuch
bench table2 nosuch
CASES

# a numeric flag out of range names the flag and the value as typed,
# in the flag's unit
check '^error: --' <<'CASES'
cli serve gesture --core tiny --rate 0
cli serve gesture --core tiny --duration 0
cli serve gesture --core tiny --cores 0
cli serve gesture --core tiny --batch-max 0 --duration 0.01
cli fleet gesture --core tiny --rate 0
cli fleet gesture --core tiny --duration 0
cli fleet gesture --core tiny --nodes 0
cli fleet gesture --core tiny --batch-max 0 --duration 0.01
cli decode --core lite --rate 0
cli decode --core lite --duration 0
cli decode --core lite --batch-max 0 --duration 0.01
cli decode --core lite --hbm-mb 0 --duration 0.01
CASES

# every command rejects a core that cannot run the model before it
# compiles anything
check '^error: .*does not support' <<'CASES'
cli simulate llm-decode --core tiny
cli profile llm-decode --core tiny --training
cli disasm llm-decode --core tiny
cli streams llm-decode --core tiny
cli trace llm-decode --core tiny -o x.json
cli lint llm-decode --core tiny
cli sanitize llm-decode --core tiny
cli serve llm-decode --core tiny --rate 1 --duration 0.001
cli fleet llm-decode --core tiny --rate 1 --duration 0.001
cli decode --core tiny --rate 1 --duration 0.01
CASES

# a command line that does not parse (a missing MODEL, an option the
# command does not have) is cmdliner's usage error, exit 124
while read -r args; do
  status=0
  # $args splits into words on purpose
  "$cli" $args < /dev/null > out 2> err || status=$?
  [ $status -eq 124 ] || { echo "FAIL (exit $status): cli $args"; fail=1; }
done <<'CASES'
simulate
trace
decode --core lite --costing surrogate
decode --core lite --costing exact
decode --core lite --max-cache-len 8
CASES

run() { "$@" > /dev/null || { echo "FAIL (exit $?): $*"; fail=1; }; }

# a flag the run does not read is not checked: closed-loop clients
# read no --rate
run "$cli" serve gesture --core tiny --closed 4 --rate 0 --duration 0.01

# differential sides that must agree to the byte
same() {
  cmp -s "$2" "$3" || { echo "FAIL: $1 differ"; fail=1; }
}
run "$cli" lint resnet18 --soc --json lint_soc.json
run "$cli" sanitize resnet18 --json sanitize.json
same "lint resnet18 --soc --json and sanitize resnet18 --json" \
  lint_soc.json sanitize.json

exit $fail
