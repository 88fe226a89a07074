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
# --parent <rev> compares the checkout with a revision instead: it builds
# each package's test binary from both (the revision's from a `git archive`
# export in a temporary directory, removed on exit), runs the two binaries
# alternately, ten pairs, the first of each pair switching sides, and prints
# per benchmark both medians in ns/op, their ratio (checkout / revision) and
# how many pairs moved the way the medians did. It writes no BENCH_*.json.
# A benchmark one side lacks prints "-" for that side.
#
# Usage: scripts/bench.sh [benchtime]   (default 1s; e.g. "100x" for a quick run)
#        scripts/bench.sh --parent <rev> [pkgs]   (default pkgs: ./internal/core)
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--parent" ]; then
    REV="${2:?usage: scripts/bench.sh --parent <rev> [pkgs]}"
    shift 2
    PKGS=("$@")
    [ ${#PKGS[@]} -gt 0 ] || PKGS=(./internal/core)
    PAIRS=10
    WORK="$(mktemp -d)"
    trap 'rm -rf "$WORK"' EXIT
    mkdir -p "$WORK/parent" "$WORK/bin"
    git archive "$REV" | tar -x -C "$WORK/parent"
    ROOT="$(pwd)"
    for PKG in "${PKGS[@]}"; do
        NAME="$(basename "$PKG")"
        # A side whose package has no tests builds no binary and reads "-".
        go test -c -o "$WORK/bin/new-$NAME.test" "$PKG" > /dev/null
        (cd "$WORK/parent" && go test -c -o "$WORK/bin/parent-$NAME.test" "$PKG" > /dev/null) || true
        echo "== $PKG: $PAIRS pairs, $REV vs the checkout" >&2
        for i in $(seq 1 "$PAIRS"); do
            SIDES="parent new"
            [ $((i % 2)) = 0 ] && SIDES="new parent"
            for SIDE in $SIDES; do
                BIN="$WORK/bin/$SIDE-$NAME.test"
                DIR="$ROOT/$PKG"
                [ "$SIDE" = parent ] && DIR="$WORK/parent/$PKG"
                [ -x "$BIN" ] || continue
                (cd "$DIR" && "$BIN" -test.run '^$' -test.bench . -test.benchtime 1s -test.timeout 10m) |
                    awk -v side="$SIDE" -v pair="$i" -v pkg="$NAME" '
                    /^Benchmark/ { for (f = 2; f < NF; f++) if ($(f+1) == "ns/op") {
                        name = $1; sub(/-[0-9]+$/, "", name)
                        print pkg "." name, side, pair, $f } }'
            done
        done
    done > "$WORK/runs.txt"
    # runs.txt: <pkg.Benchmark> <side> <pair> <ns/op>, one line per run.
    awk '
    function median(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
        return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
    }
    {
        if (!($1 in seen)) { seen[$1] = 1; names[++nn] = $1 }
        v[$1, $2, $3] = $4
        if ($3 > pairs) pairs = $3
    }
    END {
        printf "%-44s %12s %12s %7s  %s\n", "benchmark", "parent ns/op", "new ns/op", "ratio", "pairs"
        for (k = 1; k <= nn; k++) {
            b = names[k]; np = 0; nw = 0; delete p; delete w
            for (i = 1; i <= pairs; i++) {
                if ((b, "parent", i) in v) p[++np] = v[b, "parent", i]
                if ((b, "new", i) in v) w[++nw] = v[b, "new", i]
            }
            if (np == 0 || nw == 0) {
                printf "%-44s %12s %12s %7s  %s\n", b, np ? median(p, np) : "-", nw ? median(w, nw) : "-", "-", "-"
                continue
            }
            mp = median(p, np); mw = median(w, nw); r = mw / mp
            agree = 0; both = 0
            for (i = 1; i <= pairs; i++) if (((b, "parent", i) in v) && ((b, "new", i) in v)) {
                both++
                d = v[b, "new", i] - v[b, "parent", i]
                if ((r < 1 && d < 0) || (r > 1 && d > 0)) agree++
            }
            printf "%-44s %12.1f %12.1f %7.3f  %d/%d %s\n", b, mp, mw, r, agree, both, r < 1 ? "faster" : (r > 1 ? "slower" : "even")
        }
    }' "$WORK/runs.txt"
    exit 0
fi
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
