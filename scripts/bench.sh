#!/usr/bin/env bash
# Runs the Figure-2, ablation and simulator benchmarks with repetition and
# writes a machine-readable baseline (BENCH_baseline.json by default) so
# future performance PRs have a trajectory to compare against:
#
#   scripts/bench.sh                 # 5 repetitions -> BENCH_baseline.json
#   COUNT=1 scripts/bench.sh out.json
#
# Environment:
#   COUNT      repetitions per benchmark (default 5)
#   BENCHTIME  go test -benchtime value (default 1x)
#   BENCH      benchmark regex (default Fig2 + ablations + simulator)
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-1x}"
BENCH="${BENCH:-BenchmarkFig2|BenchmarkAblation|BenchmarkSimulator|BenchmarkSweep|BenchmarkHighWarp|BenchmarkManyCore|BenchmarkMSHR}"
OUT="${1:-BENCH_baseline.json}"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem . | tee "$RAW"

# Convert `go test -bench` lines into JSON: every (value, unit) pair after
# the iteration count becomes a metric keyed by its unit.
awk -v count="$COUNT" -v benchtime="$BENCHTIME" '
BEGIN {
    printf "{\n"
    printf "  \"count\": %s,\n", count
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"results\": [\n"
    n = 0
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iters\": %s", name, $2
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/[\/]/, "_per_", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
/^(goos|goarch|pkg|cpu):/ {
    key = $1
    sub(/:$/, "", key)
    meta[key] = substr($0, index($0, $2))
}
END {
    printf "\n  ],\n"
    printf "  \"goos\": \"%s\",\n", meta["goos"]
    printf "  \"goarch\": \"%s\",\n", meta["goarch"]
    printf "  \"cpu\": \"%s\"\n", meta["cpu"]
    printf "}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmark records)"
