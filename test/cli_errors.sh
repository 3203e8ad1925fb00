#!/bin/sh
# Bad input to the two command-line tools: every case below must print
# exactly one "error:" line on stderr and exit 1 (README.md has the
# exit-code table).  Then two differentials whose sides must agree to
# the byte.
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

# one case per line: the tool, then its arguments.  Output paths under
# missing/ name a directory that does not exist.  A bench case must also
# run no section: nothing on stdout, no BENCH_*.json written.
while read -r tool args; do
  case $tool in
  cli) bin=$cli ;;
  bench) bin=$bench ;;
  esac
  status=0
  # $args splits into words on purpose
  $bin $args < /dev/null > out 2> err || status=$?
  if [ "$status" -ne 1 ] || [ "$(wc -l < err)" -ne 1 ] \
    || ! grep -q '^error:' err \
    || { [ "$tool" = bench ] && { [ -s out ] || ls BENCH_*.json > /dev/null 2>&1; }; }
  then
    echo "FAIL (exit $status): $tool $args"
    cat err
    fail=1
  fi
done <<'CASES'
cli serve gesture --core tiny --rate 0
cli serve gesture --core tiny --duration 0
cli serve gesture --core tiny --cores 0
cli serve gesture,gesture --core tiny
cli fleet gesture --core tiny --rate 0
cli fleet gesture --core tiny --duration 0
cli fleet gesture --core tiny --nodes 0
cli decode --core lite --rate 0
cli decode --core lite --duration 0
cli serve gesture --core tiny --duration 0.05 --json missing/x.json
cli serve gesture --core tiny --duration 0.05 --trace missing/x.json
cli fleet gesture --core tiny --duration 0.05 --pagein-json missing/x.json
cli decode --core lite --duration 0.02 --json missing/x.json
cli trace gesture --core tiny -o missing/x.json
cli lint gesture --core tiny --json missing/x.json
cli calibrate gesture --core tiny --json missing/x.json
cli lint
cli sanitize
cli calibrate
cli lint --times closed
cli lint llm-decode --core tiny
cli sanitize llm-decode --core tiny
cli calibrate llm-decode --core tiny
cli calibrate --decode --core tiny
cli lint --placement gesture --replicas 0,1 --nodes 2
cli trace
cli trace gesture --model gesture
cli serve llm-decode --core tiny --rate 1 --duration 0.001
cli fleet llm-decode --core tiny --rate 1 --duration 0.001
cli decode --core tiny --rate 1 --duration 0.01
bench nosuch
bench table2 nosuch
CASES

# differential sides that must agree to the byte
run() { "$@" > /dev/null || { echo "FAIL (exit $?): $*"; fail=1; }; }
same() {
  cmp -s "$2" "$3" || { echo "FAIL: $1 differ"; fail=1; }
}
run "$cli" lint resnet18 --soc --json lint_soc.json
run "$cli" sanitize resnet18 --json sanitize.json
same "lint resnet18 --soc --json and sanitize resnet18 --json" \
  lint_soc.json sanitize.json
run "$cli" lint --cluster --times closed --json closed.json
run "$cli" lint --cluster --times schedule --json schedule.json
same "lint --cluster --times closed and --times schedule" \
  closed.json schedule.json

exit $fail
