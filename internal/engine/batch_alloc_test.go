package engine

import (
	"math/rand"
	"runtime"
	"testing"
)

// Allocation regression guards: the batch kernels' costs must stay
// O(columns), never O(rows) — and for the partitioner, the join and the
// aggregate, never O(partitions) or O(distinct keys) either. The kernels'
// throw-away vectors come from scratch (scratch.go), so most bounds sit at
// the measured count: a runtime version bump that moves one is a reason to
// re-measure, and an accidental per-row allocation (boxing a cell, growing
// a slice per element) blows straight through.

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
	// The exact-size selection and the output batch; the columns are shared.
	if allocs > 2 {
		t.Errorf("FilterBatch allocs = %.0f, want ≤ 2", allocs)
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
			// Partition bounds, one selection carved into every partition,
			// the view headers and the slice of them (the partition indexes
			// are scratch): the partitions are views, so neither the column
			// count nor the partition count (nor the row count) shows.
			if allocs > 4 {
				t.Errorf("%s, %d parts: PartitionBatchByKey allocs = %.0f, want ≤ 4", in.name, parts, allocs)
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
		// The compiled key test (two), the output batch and its columns,
		// and one gathered vector per output column: 10 today. Hashes,
		// chains and match indexes are scratch.
		if allocs > 10 {
			t.Errorf("%d probe rows, %d keys: HashJoinBatch allocs = %.0f, want ≤ 10", sh.rows, sh.domain, allocs)
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
		// The compiled key test, the unsorted output (batch, columns, one
		// key vector, two vectors per sum/min and one per count), then the
		// sort's key list, comparator list and closure, and gathered
		// output: 18 today. Hashes, group table, group representatives and
		// ids and the sort's index vector are scratch.
		if allocs > 18 {
			t.Errorf("%d rows, %d keys: HashAggregateBatch allocs = %.0f, want ≤ 18", sh.rows, sh.domain, allocs)
		}
	}
}

// checkRowInvariantAllocs measures kernel over typed batches of 512 and
// 4,096 rows: both counts must be equal — a per-row allocation makes the
// larger one grow — and within budget.
func checkRowInvariantAllocs(t *testing.T, name string, budget float64, kernel func(b *Batch)) {
	t.Helper()
	skipUnderRace(t)
	var allocs [2]float64
	for i, n := range []int{512, 8 * 512} {
		b := typedBatch(n)
		allocs[i] = testing.AllocsPerRun(20, func() { kernel(b) })
	}
	if allocs[0] != allocs[1] || allocs[1] > budget {
		t.Errorf("%s allocs = %.0f at 512 rows, %.0f at 4096, want the same count ≤ %.0f", name, allocs[0], allocs[1], budget)
	}
}

func TestSortBatchAllocs(t *testing.T) {
	// The comparator list, one comparator per key (two), then the gathered
	// batch, its column list and one vector per column (four): 9 today.
	// The index vector is scratch.
	checkRowInvariantAllocs(t, "SortBatch", 9, func(b *Batch) { SortBatch(b, []int{0, 2}) })
}

func TestTopKBatchAllocs(t *testing.T) {
	// SortBatch's count: the k-row gather allocates as the full one does.
	checkRowInvariantAllocs(t, "TopKBatch", 9, func(b *Batch) { TopKBatch(b, []int{0, 2}, 10, true) })
}

func TestPartitionBatchByRangeAllocs(t *testing.T) {
	bounds := []Row{{int64(25)}, {int64(50)}, {int64(75)}}
	// The bounds batch (batch, column list, one vector), then
	// partitionViews' four: 7 today. The partition indexes are scratch.
	checkRowInvariantAllocs(t, "PartitionBatchByRange", 7, func(b *Batch) { PartitionBatchByRange(b, []int{0}, bounds) })
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

// warmBytes is the fewest bytes one call of f allocated over eight calls
// after a warm-up call: a collection that empties the scratch pool costs
// one call a refill, not the measurement.
func warmBytes(f func()) uint64 {
	f()
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for i := 0; i < 8; i++ {
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// lowCardinalityBatch is Q1's partial-aggregate input at n rows: two
// one-byte string keys over six combinations and three float64 payloads.
func lowCardinalityBatch(n int, seed int64) *Batch {
	r := rand.New(rand.NewSource(seed))
	flags, statuses := make([]string, n), make([]string, n)
	qty, price, disc := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		flags[i] = string("ANR"[r.Intn(3)])
		statuses[i] = string("FO"[r.Intn(2)])
		qty[i] = float64(1 + r.Intn(50))
		price[i] = qty[i] * (900 + r.Float64()*100)
		disc[i] = price[i] * (1 - float64(r.Intn(11))/100)
	}
	return NewBatch(StringCol(flags), StringCol(statuses), Float64Col(qty), Float64Col(price), Float64Col(disc))
}

// TestKernelAllocBytesFollowOutput: on warm kernels the bytes a call
// allocates follow its output, not its input rows — every row-sized vector
// a kernel only reads while it runs is scratch. Each kernel runs at 1,000
// and 100,000 input rows with the same output, and the larger call may not
// allocate more than the smaller, nor more than its budget. The
// partitioner, whose views cover every row, owes one int32 per row.
func TestKernelAllocBytesFollowOutput(t *testing.T) {
	skipUnderRace(t)
	q1Aggs := []Agg{{AggSum, 2}, {AggSum, 3}, {AggSum, 4}, {AggCount, 0}}
	build := NewBatch(Int64Col(make([]int64, 64)))
	for k := range build.Cols[0].Ints {
		build.Cols[0].Ints[k] = int64(k)
	}
	for _, k := range []struct {
		name   string
		budget func(rows int) uint64
		call   func(rows int) func() // builds the input, returns the measured call
	}{
		{"aggregate into 6 groups (Q1's partial)", fixed(4 << 10), func(rows int) func() {
			b := lowCardinalityBatch(rows, 1)
			return func() { HashAggregateBatch(b, []int{0, 1}, q1Aggs) }
		}},
		{"aggregate of a 97% view into 6 groups", fixed(4 << 10), func(rows int) func() {
			b := FilterBatch(lowCardinalityBatch(rows, 2), func(i int) bool { return i%32 != 0 })
			return func() { HashAggregateBatch(b, []int{0, 1}, q1Aggs) }
		}},
		{"filter keeping 64 rows", fixed(512), func(rows int) func() {
			b := typedBatch(rows)
			step := rows / 64
			return func() { FilterBatch(b, func(i int) bool { return i%step == 0 && i/step < 64 }) }
		}},
		{"top 10", fixed(2 << 10), func(rows int) func() {
			b := typedBatch(rows)
			return func() { TopKBatch(b, []int{0, 2}, 10, true) }
		}},
		{"join matching 64 probe rows", fixed(4 << 10), func(rows int) func() {
			probe := NewBatch(Int64Col(make([]int64, rows)))
			for i := range probe.Cols[0].Ints {
				probe.Cols[0].Ints[i] = int64(64 + i)
			}
			for k := 0; k < 64; k++ {
				probe.Cols[0].Ints[k*(rows/64)] = int64(k)
			}
			return func() { HashJoinBatch(build, []int{0}, probe, []int{0}) }
		}},
		// One int32 per row, rounded up to the allocator's 8 KiB pages.
		{"partition into 16", func(rows int) uint64 { return 41*uint64(rows)/10 + 2<<10 }, func(rows int) func() {
			b := typedBatch(rows)
			return func() { PartitionBatchByKey(b, []int{0}, 16) }
		}},
	} {
		small, large := warmBytes(k.call(1000)), warmBytes(k.call(100_000))
		if k.budget(1000) == k.budget(100_000) && large > small {
			t.Errorf("%s: %d B at 100,000 rows, %d B at 1,000: the input rows show", k.name, large, small)
		}
		if large > k.budget(100_000) || small > k.budget(1000) {
			t.Errorf("%s: %d B at 1,000 rows, %d B at 100,000, want ≤ %d and ≤ %d",
				k.name, small, large, k.budget(1000), k.budget(100_000))
		}
	}
}

// fixed is a byte budget that does not depend on the input rows.
func fixed(bytes uint64) func(int) uint64 { return func(int) uint64 { return bytes } }
