package engine

import (
	"math/rand"
	"testing"
)

// Allocation regression guards: the batch kernels' costs must stay
// O(columns), never O(rows). Bounds are deliberately a little loose so a
// runtime version bump doesn't trip them, but an accidental per-row
// allocation (boxing a cell, growing a slice per element) blows straight
// through.

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
	const parts = 8
	allocs := testing.AllocsPerRun(20, func() {
		PartitionBatchByKey(b, []int{0, 2}, parts)
	})
	// hash/pidx/count scratch plus, per partition, a batch header and one
	// exact-size vector per column — independent of row count.
	limit := float64(8 + parts*(3+b.NumCols()))
	if allocs > limit {
		t.Errorf("PartitionBatchByKey allocs = %.0f, want ≤ %.0f", allocs, limit)
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
