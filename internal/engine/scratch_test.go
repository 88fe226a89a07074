package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// Kernel scratch (scratch.go) is reused across calls and goroutines, so
// these tests hold the two promises that make that safe: a result never
// aliases scratch, and a reused vector never leaks a previous call's
// values into the next one.

// keptOutput is one kernel result and the oracle rows it must equal.
type keptOutput struct {
	what string
	got  *Batch
	want []Row
}

// scratchKernelOutputs runs every kernel that takes scratch over one random
// input — through a filter view, so Sel-driven paths run too — and returns
// each result next to the row-at-a-time oracle's answer.
func scratchKernelOutputs(seed int64) []keptOutput {
	r := rand.New(rand.NewSource(seed))
	rows := randRows(r, 100+r.Intn(300))
	b := BatchFromRows(rows)
	build := randRows(r, 20+r.Intn(80))
	keep := func(i int) bool { return i%3 != 0 }
	var kept []Row
	for i, row := range rows {
		if keep(i) {
			kept = append(kept, row)
		}
	}
	view := FilterBatch(b, keep)
	sorted := append([]Row(nil), kept...)
	SortRows(sorted, []int{2, 0})
	aggs := []Agg{{AggSum, 1}, {AggCount, 0}, {AggMin, 2}, {AggMax, 0}}
	out := []keptOutput{
		{"filter", view, kept},
		{"sort", SortBatch(view, []int{2, 0}), sorted},
		{"top-k", TopKBatch(view, []int{0}, 7, true), TopKDesc(kept, []int{0}, 7)},
		{"join", HashJoinBatch(BatchFromRows(build), []int{0}, view, []int{0}),
			Drain(NewHashJoin(build, []int{0}, NewSliceIter(kept), []int{0}))},
		{"aggregate", HashAggregateBatch(view, []int{2}, aggs), HashAggregate(kept, []int{2}, aggs)},
	}
	wantParts := PartitionByKey(kept, []int{0, 2}, 5)
	for p, part := range PartitionBatchByKey(view, []int{0, 2}, 5) {
		out = append(out, keptOutput{fmt.Sprintf("partition %d", p), part, wantParts[p]})
	}
	bounds := []Row{{int64(5)}, {int64(12)}}
	wantRanges := PartitionByRange(kept, []int{0}, bounds)
	for p, part := range PartitionBatchByRange(view, []int{0}, bounds) {
		out = append(out, keptOutput{fmt.Sprintf("range %d", p), part, wantRanges[p]})
	}
	return out
}

// sameRows is rowsEqual for goroutines that may not call t.Fatal.
func sameRows(got, want []Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

// TestKernelScratchNeverAliasesResults keeps one call's results of every
// scratch-taking kernel, then runs the same kernels over other inputs from
// eight goroutines — which take, overwrite and return the same pooled
// scratch — and checks the kept results still equal the oracle, as do the
// workers' own. Under -race it also catches two calls sharing one scratch.
func TestKernelScratchNeverAliasesResults(t *testing.T) {
	kept := scratchKernelOutputs(100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				for _, o := range scratchKernelOutputs(int64(1000*(w+1) + it)) {
					if !sameRows(o.got.Rows(), o.want) {
						t.Errorf("worker %d iteration %d: %s differs from the oracle", w, it, o.what)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, o := range kept {
		rowsEqual(t, "kept "+o.what, o.got.Rows(), o.want)
	}
}

// groupedRows returns 3n rows in n groups, row i in group i%n: (int64 key
// or NULL for the last group, float64 twin of the key with -0.0 for half
// of group 0's rows, float64 payload, string payload).
func groupedRows(r *rand.Rand, n int) []Row {
	rows := make([]Row, 3*n)
	for i := range rows {
		g := i % n
		var key, twin Value = int64(g), float64(g)
		if g == n-1 {
			key = nil
		}
		if g == 0 && i%2 == 1 {
			twin = math.Copysign(0, -1)
		}
		rows[i] = Row{key, twin, float64(r.Intn(1000)) / 8, string(rune('a' + r.Intn(26)))}
	}
	return rows
}

// TestHashAggregateBatchGrowthEquivalence pins HashAggregateBatch to the
// oracle at the group counts where its table grows: one group, one either
// side of every doubling from the first table on (the table passes half
// load at half its size plus one), and past 10,000. Each count runs dense
// and through a Sel view, with a NULL key group, keyed on an int64 column,
// on its float64 twin — where 0.0 and -0.0 must hash and compare as one
// group — and on both.
func TestHashAggregateBatchGrowthEquivalence(t *testing.T) {
	// From minGroupSlots rows on the first table has 4·minGroupSlots
	// slots; a table grows when its group count first exceeds half its size.
	counts := []int{1}
	for half := 2 * minGroupSlots; half <= 10000; half *= 2 {
		counts = append(counts, half, half+1, half+2)
	}
	counts = append(counts, 12000)
	r := rand.New(rand.NewSource(53))
	aggs := []Agg{{AggSum, 2}, {AggCount, 0}, {AggMin, 3}, {AggMax, 0}}
	for _, n := range counts {
		rows := groupedRows(r, n)
		b := BatchFromRows(rows)
		// Drop the second of each group's three rows: every group survives.
		keep := func(i int) bool { return i/n != 1 }
		view := FilterBatch(b, keep)
		var kept []Row
		for i, row := range rows {
			if keep(i) {
				kept = append(kept, row)
			}
		}
		for _, keys := range [][]int{{0}, {1}, {0, 1}} {
			for _, in := range []struct {
				name string
				b    *Batch
				rows []Row
			}{{"dense", b, rows}, {"view", view, kept}} {
				what := fmt.Sprintf("%d groups, keys %v, %s", n, keys, in.name)
				got := HashAggregateBatch(in.b, keys, aggs)
				if got.Len != n {
					t.Fatalf("%s: %d groups", what, got.Len)
				}
				rowsEqual(t, what, got.Rows(), HashAggregate(in.rows, keys, aggs))
			}
		}
	}
}
