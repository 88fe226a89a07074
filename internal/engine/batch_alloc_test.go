package engine

import (
	"math/rand"
	"testing"
)

// Allocation regression guards: the batch kernels' costs must stay
// O(columns), never O(rows) — and for the partitioner, the join and the
// aggregate, never O(partitions) or O(distinct keys) either. Bounds are
// deliberately a little loose so a runtime version bump doesn't trip them,
// but an accidental per-row allocation (boxing a cell, growing a slice per
// element) blows straight through.

// skipUnderRace skips allocation-count assertions when the race detector
// is on: its instrumentation allocates, making AllocsPerRun overcount.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// typedBatch is a 4-column null-free typed batch (the hot-path shape).
func typedBatch(n int) *Batch {
	r := rand.New(rand.NewSource(40))
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	bools := make([]bool, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(r.Intn(100))
		floats[i] = float64(r.Intn(100)) / 3
		strs[i] = string(rune('a' + r.Intn(26)))
		bools[i] = r.Intn(2) == 0
	}
	return NewBatch(Int64Col(ints), Float64Col(floats), StringCol(strs), BoolCol(bools))
}

func TestFilterBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	b := typedBatch(4096)
	allocs := testing.AllocsPerRun(20, func() {
		FilterBatch(b, func(i int) bool { return i%2 == 0 })
	})
	// sel slice + output batch + one vector per column.
	if allocs > 12 {
		t.Errorf("FilterBatch allocs = %.0f, want ≤ 12", allocs)
	}
}

func TestPartitionBatchByKeyAllocs(t *testing.T) {
	skipUnderRace(t)
	b := typedBatch(4096)
	inputs := []struct {
		name string
		b    *Batch
	}{
		{"1 column", b.Project([]int{0})},
		{"4 columns", b},
		{"12 columns", b.Project([]int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})},
		{"view", FilterBatch(b, func(i int) bool { return i%3 != 0 })},
	}
	for _, in := range inputs {
		for _, parts := range []int{2, 8, 64} {
			allocs := testing.AllocsPerRun(20, func() {
				PartitionBatchByKey(in.b, []int{0}, parts)
			})
			// Partition indexes, partition bounds, one selection carved into
			// every partition, the view headers and the slice of them: the
			// partitions are views, so neither the column count nor the
			// partition count (nor the row count) shows.
			if allocs > 5 {
				t.Errorf("%s, %d parts: PartitionBatchByKey allocs = %.0f, want ≤ 5", in.name, parts, allocs)
			}
		}
	}
}

// keyedBatch is an n-row null-free batch of (int64 key in [0, domain),
// float64, string).
func keyedBatch(n, domain int, seed int64) *Batch {
	r := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := range keys {
		keys[i] = int64(r.Intn(domain))
		floats[i] = float64(r.Intn(1000)) / 8
		strs[i] = string(rune('a' + r.Intn(26)))
	}
	return NewBatch(Int64Col(keys), Float64Col(floats), StringCol(strs))
}

// shapes are the row counts and key domains the join and aggregate guards
// sweep: their budgets must hold across all of them.
var shapes = []struct{ rows, domain int }{{256, 4}, {256, 256}, {8192, 4}, {8192, 8192}}

func TestHashJoinBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, sh := range shapes {
		// About one build row per key, so the join emits about one row per
		// probe row whatever the domain.
		build := keyedBatch(sh.domain, sh.domain, 1)
		probe := keyedBatch(sh.rows, sh.domain, 2)
		allocs := testing.AllocsPerRun(10, func() {
			HashJoinBatch(build, []int{0}, probe, []int{0})
		})
		// Two hash vectors, the chain heads and links, the compiled key
		// test (two), two match index arrays, the output batch and its
		// columns, and one gathered vector per output column: 16 today.
		if allocs > 18 {
			t.Errorf("%d probe rows, %d keys: HashJoinBatch allocs = %.0f, want ≤ 18", sh.rows, sh.domain, allocs)
		}
	}
}

func TestHashAggregateBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	aggs := []Agg{{AggSum, 1}, {AggCount, 0}, {AggMin, 2}}
	for _, sh := range shapes {
		b := keyedBatch(sh.rows, sh.domain, 3)
		allocs := testing.AllocsPerRun(10, func() {
			HashAggregateBatch(b, []int{0}, aggs)
		})
		// Hashes, the compiled key test, the group table, group
		// representatives and ids, the unsorted output (batch, columns, one
		// key vector, two vectors per sum/min and one per count), then the
		// sort's key list, index vector, comparator list and closure, and
		// gathered output: 23 today.
		if allocs > 25 {
			t.Errorf("%d rows, %d keys: HashAggregateBatch allocs = %.0f, want ≤ 25", sh.rows, sh.domain, allocs)
		}
	}
}

func TestAppendBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	b := typedBatch(4096)
	buf := make([]byte, 0, EncodedBatchSize(b))
	allocs := testing.AllocsPerRun(20, func() {
		buf = AppendBatch(buf[:0], b)
	})
	if allocs != 0 {
		t.Errorf("AppendBatch into sized buffer allocs = %.0f, want 0", allocs)
	}
}

func TestDecodeBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	enc := EncodeBatch(typedBatch(4096))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBatch(enc); err != nil {
			t.Fatal(err)
		}
	})
	// Batch header, column headers, one vector per column and one string
	// slab — O(columns), never O(rows).
	if allocs > 16 {
		t.Errorf("DecodeBatch allocs = %.0f, want ≤ 16", allocs)
	}
}

func TestHashBatchIntoAllocs(t *testing.T) {
	skipUnderRace(t)
	b := typedBatch(4096)
	dst := make([]uint64, b.Len)
	allocs := testing.AllocsPerRun(20, func() {
		HashBatchInto(b, []int{0, 1, 2, 3}, dst)
	})
	if allocs != 0 {
		t.Errorf("HashBatchInto allocs = %.0f, want 0", allocs)
	}
}
