#!/bin/sh
# overheadgate.sh [budget] — telemetry/flight-recorder overhead gate.
#
# Runs the BenchmarkCompressNekFlightRecOff/...On pair (the ST4 kernel
# on a Nek5000 cube with instrumentation disabled versus fully enabled,
# see internal/telemetry/overhead_bench_test.go), averages the repeated
# runs, and fails when the enabled configuration costs more than the
# budget (default 3%) over the disabled one. The disabled configuration
# IS the production default — a nil collector and recorder — so this
# gate bounds what turning observability on costs, while the bench/
# module (bench/run.sh) measures the speed of the default path.
#
# Knobs: OVERHEAD_COUNT benchmark repetitions (default 3),
# OVERHEAD_BENCHTIME -benchtime value (default 2x). POSIX sh + awk
# only.
set -eu

budget="${1:-3}"
: "${OVERHEAD_COUNT:=3}"
: "${OVERHEAD_BENCHTIME:=2x}"

log="$(mktemp)"
trap 'rm -f "$log"' EXIT

go test -run '^$' -bench 'CompressNekFlightRec(Off|On)$' \
    -benchtime "$OVERHEAD_BENCHTIME" -count "$OVERHEAD_COUNT" \
    ./internal/telemetry/ | tee "$log"

awk -v budget="$budget" '
/^BenchmarkCompressNekFlightRecOff/ { off += $3; noff++ }
/^BenchmarkCompressNekFlightRecOn/  { on  += $3; non++ }
END {
    if (noff == 0 || non == 0) {
        print "overheadgate: benchmark pair missing from output" > "/dev/stderr"
        exit 2
    }
    off /= noff; on /= non
    pct = (on - off) * 100.0 / off
    printf "overheadgate: off %.0f ns/op, on %.0f ns/op, overhead %+.2f%% (budget %s%%)\n",
        off, on, pct, budget
    if (pct > budget + 0) {
        print "overheadgate: FAIL — enabled telemetry exceeds the budget" > "/dev/stderr"
        exit 1
    }
}' "$log"
