#!/bin/sh
# overheadgate.sh [budget] — telemetry/flight-recorder overhead gate.
#
# Times the BenchmarkCompressNekFlightRecOff/...On pair (the ST4 kernel
# on a Nek5000 cube with instrumentation disabled versus fully enabled,
# see internal/telemetry/overhead_bench_test.go) and fails when the
# enabled configuration costs more than the budget (default 3%) over
# the disabled one. The disabled configuration IS the production
# default — a nil collector and recorder — so this gate bounds what
# turning observability on costs, while the bench/ module
# (bench/run.sh) measures the speed of the default path.
#
# Method: the test binary is built once, then Off and On run as
# interleaved pairs, the order alternating from pair to pair (Off On,
# On Off, ...), so host drift lands on both sides of a pair instead of
# reading as overhead. Each pair gives one relative difference
# (on - off) / off, and the gate reads the median of those differences.
#
# Knobs: OVERHEAD_PAIRS pairs (default 15), OVERHEAD_BENCHTIME
# -test.benchtime per sample (default 4x). POSIX sh + awk only.
set -eu

budget="${1:-3}"
: "${OVERHEAD_PAIRS:=15}"
: "${OVERHEAD_BENCHTIME:=4x}"
: "${GO:=go}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$GO" test -c -o "$tmp/telemetry.test" ./internal/telemetry/

sample() {
	"$tmp/telemetry.test" -test.run '^$' -test.bench "^BenchmarkCompressNekFlightRec$1\$" \
		-test.benchtime "$OVERHEAD_BENCHTIME" -test.count 1 |
		awk -v kind="$1" '$1 ~ /^BenchmarkCompressNekFlightRec/ { print kind, $3 }'
}

i=0
while [ "$i" -lt "$OVERHEAD_PAIRS" ]; do
	if [ $((i % 2)) -eq 0 ]; then
		sample Off; sample On
	else
		sample On; sample Off
	fi
	i=$((i + 1))
done | tee "$tmp/samples"

awk -v budget="$budget" '
$1 == "Off" { off[noff++] = $2 }
$1 == "On"  { on[non++] = $2 }
END {
    if (noff == 0 || noff != non) {
        print "overheadgate: benchmark pair missing from output" > "/dev/stderr"
        exit 2
    }
    for (i = 0; i < noff; i++) d[i] = (on[i] - off[i]) * 100.0 / off[i]
    # insertion sort, then the median of the paired differences
    for (i = 1; i < noff; i++) {
        v = d[i]
        for (j = i - 1; j >= 0 && d[j] > v; j--) d[j + 1] = d[j]
        d[j + 1] = v
    }
    med = (noff % 2) ? d[int(noff / 2)] : (d[noff / 2 - 1] + d[noff / 2]) / 2
    printf "overheadgate: %d interleaved pairs, median overhead %+.2f%% (range %+.2f%% .. %+.2f%%, budget %s%%)\n",
        noff, med, d[0], d[noff - 1], budget
    if (med > budget + 0) {
        print "overheadgate: FAIL — enabled telemetry exceeds the budget" > "/dev/stderr"
        exit 1
    }
}' "$tmp/samples"
