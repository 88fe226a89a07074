#!/usr/bin/env bash
# Layer benchmarks: vet, race-test the engine, then run the go-test
# microbenchmarks and record them at the repo root, one file per ladder
# rung: BENCH_engine.json (data plane: engine, tpch, exp) and
# BENCH_core.json (control plane: sim event queue, cluster Allocate/Release,
# core TaskFinished round trip, one fair-share policy round, one simulated
# task completion, shuffle cost per mode, flow admission and batched
# completions, rpc frame/message codec and loopback round trip, the trace
# codec on one submission). The end-to-end numbers are bench/'s job (go run
# ./bench), not this script's.
#
# Usage: scripts/bench.sh [benchtime]   (default 1s; e.g. "100x" for a quick run)
set -euo pipefail

cd "$(dirname "$0")/.."
BENCHTIME="${1:-1s}"

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./internal/engine/..."
go test -race ./internal/engine/...

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# rung <out.json> <pkg>...: run the packages' benchmarks and parse the
# standard output lines
#   BenchmarkName-8   1234   5678 ns/op   90 B/op   12 allocs/op
rung() {
    local out="$1"
    shift
    echo "== go test -bench . $* (benchtime=$BENCHTIME)"
    go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" "$@" | tee "$RAW"
    awk '
    BEGIN { print "[" }
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = ""; bytes = ""; allocs = ""
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op")     ns = $i
            if ($(i+1) == "B/op")      bytes = $i
            if ($(i+1) == "allocs/op") allocs = $i
        }
        if (ns == "") next
        if (n++) printf ",\n"
        printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
            name, $2, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
    }
    END { print "\n]" }
    ' "$RAW" > "$out"
    echo "== wrote $out ($(grep -c '"name"' "$out") entries)"
}

rung BENCH_engine.json ./internal/engine/ ./internal/tpch/ ./internal/exp/
rung BENCH_core.json ./internal/sim/ ./internal/cluster/ ./internal/core/ ./internal/sched/ ./internal/simrun/ ./internal/shuffle/ ./internal/flow/ ./internal/rpc/ ./internal/trace/
