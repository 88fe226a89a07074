#!/usr/bin/env bash
# Repository gate: gofmt, vet, swiftvet (the project's own static
# analyzers — see DESIGN.md "Static analysis"; a finding cannot be
# silenced, only fixed), the reachability census against its expected
# output (scripts/census.sh), race-test everything (which includes the doc
# gate, TestDocReferences in internal/lint: every backticked path and Go
# name in DESIGN.md, README.md and EXPERIMENTS.md resolves, ROADMAP.md's
# paths exist, no doc cites file.go:N, and DESIGN.md's package map is
# `go list ./...`),
# run the allocation
# guards without the race detector (every testing.AllocsPerRun budget
# and every heap-residue bound skips itself under -race, so the race run
# alone enforces none of them; the step runs every test whose name says
# what it allocates or leaves behind, and DESIGN.md "Allocation budgets"
# maps the hot functions to their guards),
# run the fixed-seed chaos soak
# (deterministic fault schedules + scheduler invariant auditor), the
# seeded smokes (trace determinism, oversize-gang refusal, fair share,
# replicated shuffle, shuffle recovery, serial-vs-parallel sweep hashes
# against the pinned table, swiftd overload end to end), run the examples
# (they self-verify), build the fuzz targets so they cannot rot, hold the
# import gates (internal/rpc on the standard library alone, no gob outside
# tests, internal/trace's codec hand-written with encoding/json as a test
# oracle),
# and smoke the benchmark suites (one iteration each) so a bench-only
# compile break or panic is caught here, not at measurement time, and the
# bench's replay workloads (their traced pass replays every completion
# through the TaskRef adapters), one short service_burst, which must
# leave no swiftd process behind, and one short engine_tpch at the
# benchmark's size, whose answers bench checks against the references. Fuzz
# *exploration* is not run by default — the default tier stays
# deterministic; run it manually with
#   go test ./internal/rpc -fuzz FuzzBatchCodec -fuzztime 30s
#   go test ./internal/rpc -fuzz FuzzFrame -fuzztime 30s
#   go test ./internal/rpc -fuzz FuzzFlowWire -fuzztime 30s
#   go test ./internal/trace -fuzz FuzzTraceCodec -fuzztime 30s
#   go test ./internal/core -run '^$' -fuzz FuzzController -fuzztime 60s
#
# -long is the opt-in long tier: after everything above it runs Fig 16's
# full sweep, up to 140,000 executors, at seeds 1, 2 and 3 (go run
# ./cmd/swiftbench -seed N -run fig16, which exits non-zero on any fidelity
# row out of band; 35–48 s a seed on a 2-vCPU VM — the tests run every
# other experiment at full size and Fig 16 on a short sweep), the chaos
# soak over 40 seeds (about 40 s), runs
# a million short jobs through one flow.Service with the heap residue per
# job bounded (about 12 s) and explores FuzzController for 60 s.
#
# Usage: scripts/ci.sh [-long] [chaos-seeds]   (default 8 chaos seeds)
set -euo pipefail

cd "$(dirname "$0")/.."
LONG=0
if [ "${1:-}" = "-long" ]; then
    LONG=1
    shift
fi
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
    echo "swiftvet: full-tree run took ${SWIFTVET_ELAPSED}s (>60s budget) — profile the package load and the may-block fixpoint (internal/lint/callgraph.go)" >&2
    exit 1
fi

echo "== reachability census (every unreached declaration is one DESIGN.md accounts for)"
scripts/census.sh > "$TRACE_TMP/census.txt"
if ! diff -u scripts/census.expected "$TRACE_TMP/census.txt"; then
    echo "census: the declarations no binary reaches changed; delete the new one or list it in DESIGN.md \"Unreached on purpose\" and scripts/census.expected" >&2
    exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== allocation guards (non-race: the AllocsPerRun budgets skip themselves under -race)"
# The rule, not a list: every guard is named for what it allocates.
go test -count=1 -run 'Alloc|SizedToSupply|Residue' ./internal/...

echo "== chaos soak ($SEEDS seeds, incl. thundering-herd admission storm + fair-share policy)"
go test ./internal/chaos/ -run 'TestSoak$|TestSoakDeterminism|TestThunderingHerd|TestFairShareSoak' \
    -chaos.seeds="$SEEDS" -count=1

echo "== trace determinism smoke (two seeded runs, byte-identical)"
go run ./cmd/swiftsim -job q9 -machines 20 -executors 8 -seed 7 \
    -trace "$TRACE_TMP/a.json" > "$TRACE_TMP/q9.out"
go run ./cmd/swiftsim -job q9 -machines 20 -executors 8 -seed 7 \
    -trace "$TRACE_TMP/b.json" > /dev/null
cmp "$TRACE_TMP/a.json" "$TRACE_TMP/b.json"
# The partition is printed after the run, when the job has left the
# controller: q9 is scheduled as four graphlets.
grep -q '^graphlets=4$' "$TRACE_TMP/q9.out"
# The -stats section is derived from the event stream; no -trace here, as
# its "trace written to <path>" line names a different file per run.
go run ./cmd/swiftsim -job q13 -failstage J3 -failat 0.4 -seed 7 -stats > "$TRACE_TMP/a.stats"
go run ./cmd/swiftsim -job q13 -failstage J3 -failat 0.4 -seed 7 -stats > "$TRACE_TMP/b.stats"
cmp "$TRACE_TMP/a.stats" "$TRACE_TMP/b.stats"

echo "== oversize gang smoke (a gang larger than the cluster fails with a reason)"
# JetScope schedules q9 as one gang of 2,559 tasks and 20 machines hold 160
# executors: SubmitJob fails the job, and swiftsim exits 1 naming both counts.
GANG_STATUS=0
go run ./cmd/swiftsim -job q9 -system jetscope -machines 20 -executors 8 \
    > /dev/null 2> "$TRACE_TMP/gang.err" || GANG_STATUS=$?
if [ "$GANG_STATUS" != 1 ] || ! grep -q 2559 "$TRACE_TMP/gang.err" || ! grep -q 160 "$TRACE_TMP/gang.err"; then
    echo "oversize gang: exit $GANG_STATUS, stderr:" >&2
    cat "$TRACE_TMP/gang.err" >&2
    exit 1
fi

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
go run ./cmd/swiftbench -run shufflerecovery > "$TRACE_TMP/shufflerecovery.out"
# Columns: policy replicas jobs completed replica_hits recomputes restarts
# last_finish_s mean_latency_s violations. The replica arm must recompute
# less and serve a lower mean latency, and neither arm may break an invariant.
awk '$1 == "recompute" { rc = $6; rl = $9; rv = $10; n++ }
     $1 == "replica" { pc = $6; pl = $9; pv = $10; n++ }
     END { if (n != 2 || pc >= rc || pl >= rl || rv != 0 || pv != 0) {
         printf "shuffle recovery: replica %s recomputes, %s s mean latency, %s violations; recompute %s, %s s, %s\n", pc, pl, pv, rc, rl, rv > "/dev/stderr"
         exit 1 } }' "$TRACE_TMP/shufflerecovery.out"

echo "== parallel sweep determinism smoke (per-seed obs hashes, serial vs parallel, seed 1 vs the pinned table)"
SWEEP="fig3,fig9a,fig12,fig14,table1"
PINNED=internal/exp/testdata/hashes.txt
for SWEEP_SEED in 1 7 13; do
    go run ./cmd/swiftbench -seed "$SWEEP_SEED" -run "$SWEEP" -hashes -workers 1 \
        > "$TRACE_TMP/sweep-serial-$SWEEP_SEED.txt"
    go run ./cmd/swiftbench -seed "$SWEEP_SEED" -run "$SWEEP" -hashes -workers 0 \
        > "$TRACE_TMP/sweep-parallel-$SWEEP_SEED.txt"
    cmp "$TRACE_TMP/sweep-serial-$SWEEP_SEED.txt" "$TRACE_TMP/sweep-parallel-$SWEEP_SEED.txt"
done
# Seed 1 is the pinned seed: its hashes must be the ones in the table
# TestPinnedBeyondPaperFullSize reads, not merely equal to each other.
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
# ...with nothing live and no panic-isolated submission, which exits 0 too.
grep -q 'drained .* live=0 panics=0$' "$TRACE_TMP/swiftd.log" || { echo "swiftd drained dirty:" >&2; cat "$TRACE_TMP/swiftd.log" >&2; exit 1; }

echo "== examples smoke (each checks its own result; a wrong one is a log.Fatal)"
for EXAMPLE in quickstart terasort faulttolerance tpch; do
    go run "./examples/$EXAMPLE" > "$TRACE_TMP/example-$EXAMPLE.out"
done

echo "== fuzz targets build, import gates"
go test -run '^$' -c -o /dev/null ./internal/rpc/
go test -run '^$' -c -o /dev/null ./internal/trace/
go test -run '^$' -c -o /dev/null ./internal/core/
# The service edge stays one codec on the standard library: internal/rpc
# imports nothing from the tree, and gob is a test oracle only.
[ "$(go list -deps ./internal/rpc | grep '^swift/')" = "swift/internal/rpc" ] || { echo "internal/rpc imports from the tree" >&2; exit 1; }
if grep -rln --include='*.go' --exclude='*_test.go' '"encoding/gob"' .; then echo "encoding/gob imported outside tests" >&2; exit 1; fi
# Submissions and trace files go through the hand-written codec; encoding/json
# is its test oracle only.
[ -z "$(go list -f '{{join .Imports "\n"}}' ./internal/trace | grep -x 'encoding/json')" ] || { echo "internal/trace imports encoding/json" >&2; exit 1; }

echo "== bench smoke (1 iteration)"
go test -run '^$' -bench . -benchtime 1x ./internal/engine/ ./internal/tpch/ ./internal/exp/ \
    ./internal/sim/ ./internal/cluster/ ./internal/core/ ./internal/sched/ ./internal/simrun/ \
    ./internal/shuffle/ ./internal/rpc/ ./internal/flow/ ./internal/trace/ > /dev/null

echo "== bench replay smoke (TaskRef adapters agree with the handle path; service_burst leaves no swiftd behind; engine_tpch answers right)"
# The traced pass of each replay workload re-drives a bare controller with
# the completions the simulator fed it by handle, now named by TaskRef
# (RunningTask, TaskFinished); a call the two runs disagree on counts as a
# failed operation, and the bench exits non-zero. The pass also checks job
# completion, the controller's invariants and same-seed determinism, and
# it sees only the schedules its seed produces: an admission change can
# pass seed 1 and fail this pass on another, so each workload runs three
# seeds (about 10 s more than one).
# A failing run is named, with the tail of its output, before the gate exits.
go build -o "$TRACE_TMP/bench" ./bench
for W in replay_batch replay_scale replay_fair; do
    for BENCH_SEED in 1 2 3; do
        BENCH_OUT="$TRACE_TMP/bench-$W-$BENCH_SEED.out"
        BENCH_STATUS=0
        "$TRACE_TMP/bench" --workload "$W" --seed "$BENCH_SEED" --trace 1 > "$BENCH_OUT" 2>&1 || BENCH_STATUS=$?
        if [ "$BENCH_STATUS" != 0 ]; then
            echo "bench --workload $W --seed $BENCH_SEED --trace 1 exited $BENCH_STATUS; last lines of its output:" >&2
            tail -n 20 "$BENCH_OUT" >&2
            exit "$BENCH_STATUS"
        fi
    done
done
go run ./bench --workload service_burst --seconds 0.1 --trace 0 > "$TRACE_TMP/bench-service.out"
if pgrep -f '[.]bench_build/swiftd' > /dev/null; then
    echo "service_burst left a swiftd process running:" >&2
    pgrep -af '[.]bench_build/swiftd' >&2
    exit 1
fi
# The TPC-H-lite plans at the benchmark's size (sf 5): every pass's answers
# are checked against the Lite*Reference functions, a wrong one counts as a
# failed operation, and the bench exits non-zero.
go run ./bench --workload engine_tpch --seconds 0.1 --trace 0 > "$TRACE_TMP/bench-tpch.out"

if [ "$LONG" = 1 ]; then
    echo "== long tier: Fig 16's full sweep, seeds 1-3 (every fig16 fidelity row in band)"
    for FULL_SEED in 1 2 3; do
        go run ./cmd/swiftbench -seed "$FULL_SEED" -run fig16 > "$TRACE_TMP/fig16-$FULL_SEED.out"
    done
    echo "== long tier: chaos soak, 40 seeds"
    go test ./internal/chaos/ -run 'TestSoak$|TestSoakDeterminism|TestThunderingHerd|TestFairShareSoak' \
        -chaos.seeds=40 -count=1
    echo "== long tier: a million short jobs through one flow.Service (heap residue per job bounded)"
    go test ./internal/flow -run 'TestServiceSoakResidue' -flow.soakjobs=1000000 -count=1 -v
    echo "== long tier: FuzzController exploration (60 s)"
    go test ./internal/core -run '^$' -fuzz FuzzController -fuzztime 60s
fi

echo "ci: all green"
