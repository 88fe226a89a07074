#!/usr/bin/env bash
# Repository gate: gofmt, vet, swiftvet (the project's own static
# analyzers — see DESIGN.md "Static analysis", with no //lint:allow left in
# non-test code to silence one), race-test everything,
# run the allocation guards without the race detector (every
# testing.AllocsPerRun budget skips itself under -race, so the race run
# alone enforces none of them; the engine's shuffle kernels are held by
# TestPartitionBatchByKeyAllocs, TestHashJoinBatchAllocs and
# TestHashAggregateBatchAllocs), run the fixed-seed chaos soak
# (deterministic fault schedules + scheduler invariant auditor), the
# seeded smokes (trace determinism, fair share, replicated shuffle,
# shuffle recovery, serial-vs-parallel sweep hashes
# against the pinned table, swiftd overload end to end), run the examples
# (they self-verify), build the fuzz targets so they cannot rot, hold the
# import gates (internal/rpc on the standard library alone, no gob outside
# tests, internal/sqlparse a front end that does not import the engine),
# and smoke the benchmark suites (one iteration each) so a bench-only
# compile break or panic is caught here, not at measurement time. Fuzz
# *exploration* is not run here — CI stays deterministic; run it manually
# with
#   go test ./internal/sqlparse -fuzz FuzzParse -fuzztime 30s
#   go test ./internal/rpc -fuzz FuzzBatchCodec -fuzztime 30s
#   go test ./internal/rpc -fuzz FuzzFrame -fuzztime 30s
#   go test ./internal/rpc -fuzz FuzzFlowWire -fuzztime 30s
#
# Usage: scripts/ci.sh [chaos-seeds]   (default 8)
set -euo pipefail

cd "$(dirname "$0")/.."
SEEDS="${1:-8}"
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT

echo "== gofmt"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== swiftvet ./... (project analyzers; swiftvet -json artifact for tooling)"
go build -o "$TRACE_TMP/swiftvet" ./cmd/swiftvet
ARTIFACTS_DIR="${ARTIFACTS_DIR:-artifacts}"
mkdir -p "$ARTIFACTS_DIR"
SWIFTVET_START="$(date +%s)"
# -json exits 1 on findings just like the plain run; the artifact is
# written either way so a red gate still ships its machine-readable list.
"$TRACE_TMP/swiftvet" -json ./... > "$ARTIFACTS_DIR/swiftvet.json"
SWIFTVET_ELAPSED="$(( $(date +%s) - SWIFTVET_START ))"
echo "swiftvet: clean in ${SWIFTVET_ELAPSED}s (artifact: $ARTIFACTS_DIR/swiftvet.json)"
if [ "$SWIFTVET_ELAPSED" -gt 60 ]; then
    echo "swiftvet: full-tree run took ${SWIFTVET_ELAPSED}s (>60s budget) — profile the call-graph build" >&2
    exit 1
fi

echo "== no //lint:allow in non-test code (fix the finding instead of silencing it)"
# A directive is a comment that starts with lint:allow; the syntax examples
# quoted inside other comments (lint.go, cmd/swiftvet) do not start one.
# Only the analyzers' own fixtures under internal/lint/testdata carry them.
if grep -rnE --include='*.go' --exclude='*_test.go' '^[^/]*//[[:space:]]*lint:allow' . |
    grep -v '^\./internal/lint/testdata/'; then
    echo "//lint:allow directives in non-test code" >&2
    exit 1
fi

echo "== swiftvet -changed smoke (incremental subset + stale fallback)"
"$TRACE_TMP/swiftvet" -changed internal/core/controller.go 2> "$TRACE_TMP/changed.err"
grep -q 'analyzing .* of .* packages' "$TRACE_TMP/changed.err"
"$TRACE_TMP/swiftvet" -changed go.mod 2> "$TRACE_TMP/stale.err"
grep -q 'analyzing the full tree' "$TRACE_TMP/stale.err"

echo "== go test -race ./..."
go test -race ./...

echo "== allocation guards (non-race: the AllocsPerRun budgets skip themselves under -race)"
# TestSaturatedRoundTripAllocs, TestFairRoundTripAllocs, TestFairShareRoundAllocs,
# TestQueueAllocs, TestAllocateSizedToSupply, TestDeadlineHeapDoesNotAllocate,
# TestWireAllocationBudgets, TestPartitionBatchByKeyAllocs, TestHashJoinBatchAllocs,
# TestHashAggregateBatchAllocs — and whatever else is named for what it allocates.
go test -count=1 -run 'Alloc|SizedToSupply' ./internal/...

echo "== chaos soak ($SEEDS seeds, incl. thundering-herd admission storm + fair-share policy)"
go test ./internal/chaos/ -run 'TestSoak$|TestSoakDeterminism|TestThunderingHerd|TestFairShareSoak' \
    -chaos.seeds="$SEEDS" -count=1

echo "== trace determinism smoke (two seeded runs, byte-identical)"
go run ./cmd/swiftsim -job q9 -machines 20 -executors 8 -seed 7 \
    -trace "$TRACE_TMP/a.json" > /dev/null
go run ./cmd/swiftsim -job q9 -machines 20 -executors 8 -seed 7 \
    -trace "$TRACE_TMP/b.json" > /dev/null
cmp "$TRACE_TMP/a.json" "$TRACE_TMP/b.json"

echo "== fair-share smoke (seeded 3-tenant burst: reclaims, no starvation, deterministic hash)"
# -verify re-runs the seed and exits non-zero on any hash mismatch; the
# greps then require actual gang reclaims and at least one completed job
# for every tenant (no starvation).
go run ./cmd/swiftchaos -fair -seed 2 -seeds 1 -verify | tee "$TRACE_TMP/fair.out"
grep -Eq 'reclaims=[1-9]' "$TRACE_TMP/fair.out"
grep -Eq 'a\[done=[1-9]' "$TRACE_TMP/fair.out"
grep -Eq 'b\[done=[1-9]' "$TRACE_TMP/fair.out"
grep -Eq 'c\[done=[1-9]' "$TRACE_TMP/fair.out"

echo "== replicated-shuffle smoke (8 seeds of Cache-Worker crashes on an R=3 store: failover beats recompute)"
# -shuffle soaks with 3-way output replication under a Cache-Worker-crash-only
# profile; -verify re-runs every seed and exits non-zero on a hash mismatch or
# an invariant violation. Copies are never re-created after a crash, so an
# output whose whole ring is hit still recomputes: the gate is that failovers
# happen and outnumber recomputes over the seeds, not that recomputes are 0.
go run ./cmd/swiftchaos -shuffle -seed 0 -seeds 8 -verify | tee "$TRACE_TMP/shuffle.out"
read -r REPLICA_HITS RECOMPUTES < <(
    sed -n 's/.*replica-hits=\([0-9]*\) recomputes=\([0-9]*\).*/\1 \2/p' "$TRACE_TMP/shuffle.out" |
        awk '{ h += $1; r += $2 } END { print h + 0, r + 0 }')
if [ "$REPLICA_HITS" -le 0 ] || [ "$RECOMPUTES" -ge "$REPLICA_HITS" ]; then
    echo "replicated shuffle: $REPLICA_HITS replica hits vs $RECOMPUTES recomputes over 8 seeds" >&2
    exit 1
fi

echo "== shuffle recovery experiment smoke (replica arm strictly cheaper than recompute)"
go run ./cmd/swiftbench -reduced -run shufflerecovery > "$TRACE_TMP/shufflerecovery.out"
grep -q 'replica' "$TRACE_TMP/shufflerecovery.out"

echo "== parallel sweep determinism smoke (per-seed obs hashes, serial vs parallel, seed 1 vs the pinned table)"
SWEEP="fig3,fig9a,fig12,fig14,table1"
PINNED=internal/exp/testdata/reduced_hashes.txt
for SWEEP_SEED in 1 7 13; do
    go run ./cmd/swiftbench -reduced -seed "$SWEEP_SEED" -run "$SWEEP" -hashes -workers 1 \
        > "$TRACE_TMP/sweep-serial-$SWEEP_SEED.txt"
    go run ./cmd/swiftbench -reduced -seed "$SWEEP_SEED" -run "$SWEEP" -hashes -workers 0 \
        > "$TRACE_TMP/sweep-parallel-$SWEEP_SEED.txt"
    cmp "$TRACE_TMP/sweep-serial-$SWEEP_SEED.txt" "$TRACE_TMP/sweep-parallel-$SWEEP_SEED.txt"
done
# Seed 1 is the pinned seed: its hashes must be the ones in the table
# TestPinnedReducedHashes reads, not merely equal to each other.
for NAME in ${SWEEP//,/ }; do
    grep "^$NAME " "$PINNED"
done > "$TRACE_TMP/sweep-pinned.txt"
cmp "$TRACE_TMP/sweep-pinned.txt" "$TRACE_TMP/sweep-serial-1.txt"

echo "== swiftd overload smoke (admission control end to end)"
go build -o "$TRACE_TMP/swiftd" ./cmd/swiftd
go build -o "$TRACE_TMP/swiftsim" ./cmd/swiftsim
"$TRACE_TMP/swiftd" -addr 127.0.0.1:0 -addrfile "$TRACE_TMP/swiftd.addr" \
    -machines 4 -executors 2 -maxqueue 8 -rate 20 -burst 4 -budget 64 \
    -timescale 200 > "$TRACE_TMP/swiftd.log" 2>&1 &
SWIFTD_PID=$!
for _ in $(seq 1 50); do
    [ -s "$TRACE_TMP/swiftd.addr" ] && break
    sleep 0.1
done
[ -s "$TRACE_TMP/swiftd.addr" ] || { echo "swiftd never bound" >&2; cat "$TRACE_TMP/swiftd.log" >&2; exit 1; }
"$TRACE_TMP/swiftsim" -submit "$(cat "$TRACE_TMP/swiftd.addr")" -jobs 80 -seed 11 -drain \
    | tee "$TRACE_TMP/submit.out"
# An 80-job burst against a queue of 8 must both queue and shed.
grep -Eq 'queued=[1-9]' "$TRACE_TMP/submit.out"
grep -Eq 'shed=[1-9]' "$TRACE_TMP/submit.out"
wait "$SWIFTD_PID"   # drain must exit 0

echo "== examples smoke (the batch API's reference users; a wrong answer is a log.Fatal)"
for EXAMPLE in quickstart terasort faulttolerance tpch; do
    go run "./examples/$EXAMPLE" > "$TRACE_TMP/example-$EXAMPLE.out"
done

echo "== fuzz targets build, import gates"
go test -run '^$' -c -o /dev/null ./internal/sqlparse/
go test -run '^$' -c -o /dev/null ./internal/rpc/
# The service edge stays one codec on the standard library: internal/rpc
# imports nothing from the tree, and gob is a test oracle only.
[ "$(go list -deps ./internal/rpc | grep '^swift/')" = "swift/internal/rpc" ] || { echo "internal/rpc imports from the tree" >&2; exit 1; }
if grep -rln --include='*.go' --exclude='*_test.go' '"encoding/gob"' .; then echo "encoding/gob imported outside tests" >&2; exit 1; fi
# sqlparse is a front end: it plans to a dag.Job and never runs one.
[ -z "$(go list -f '{{join .Imports "\n"}}' ./internal/sqlparse | grep -x 'swift/internal/engine')" ] || { echo "internal/sqlparse imports internal/engine" >&2; exit 1; }

echo "== bench smoke (1 iteration)"
go test -run '^$' -bench . -benchtime 1x ./internal/engine/ ./internal/tpch/ ./internal/exp/ \
    ./internal/sim/ ./internal/cluster/ ./internal/core/ ./internal/sched/ ./internal/shuffle/ \
    ./internal/rpc/ ./internal/flow/ > /dev/null

echo "ci: all green"
