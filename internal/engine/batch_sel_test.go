package engine

import (
	"bytes"
	"math/rand"
	"testing"
)

// Selection-vector semantics: FilterBatch returns a lazy view over the
// input's vectors, every kernel consumes it as if it were the materialised
// batch, and materialization happens only at emit/codec boundaries.

func lazyHalf(t *testing.T, b *Batch) *Batch {
	t.Helper()
	out := FilterBatch(b, func(i int) bool { return i%2 == 0 })
	if out.Sel == nil {
		t.Fatal("FilterBatch did not return a lazy view")
	}
	if len(out.Cols) > 0 && &out.Cols[0] != &b.Cols[0] {
		t.Fatal("lazy view copied the column vectors")
	}
	return out
}

func TestFilterBatchLazyView(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	b := BatchFromRows(randRows(r, 101))
	lazy := lazyHalf(t, b)
	if lazy.Len != 51 {
		t.Fatalf("lazy Len = %d, want 51", lazy.Len)
	}
	dense := lazy.Materialize()
	if dense.Sel != nil {
		t.Fatal("Materialize left a selection vector")
	}
	if lazy.Len != dense.Len {
		t.Fatalf("materialise changed Len %d -> %d", lazy.Len, dense.Len)
	}
	batchesEqual(t, "lazy vs dense cells", lazy, dense)
	rowsEqual(t, "lazy rows", lazy.Rows(), dense.Rows())

	// Filters compose: the second predicate sees physical indices and the
	// selections intersect.
	second := FilterBatch(lazy, func(i int) bool { return i%4 == 0 })
	if second.Len != 26 {
		t.Fatalf("composed Len = %d, want 26", second.Len)
	}
	for j := 0; j < second.Len; j++ {
		if int(second.Sel[j]) != 4*j {
			t.Fatalf("composed sel[%d] = %d, want %d", j, second.Sel[j], 4*j)
		}
	}

	// Project shares the selection; WithCol and Gather densify.
	proj := lazy.Project([]int{2, 0})
	if proj.Sel == nil || proj.Len != lazy.Len {
		t.Fatal("Project dropped the selection")
	}
	batchesEqual(t, "projected lazy", proj, dense.Project([]int{2, 0}))
}

func TestSelKernelEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	b := BatchFromRows(randRows(r, 257))
	lazy := lazyHalf(t, b)
	dense := lazy.Materialize()

	keys := []int{0, 2}
	hl := make([]uint64, lazy.Len)
	hd := make([]uint64, dense.Len)
	HashBatchInto(lazy, keys, hl)
	HashBatchInto(dense, keys, hd)
	for i := range hl {
		if hl[i] != hd[i] {
			t.Fatalf("row %d hash %x (lazy) != %x (dense)", i, hl[i], hd[i])
		}
	}

	batchesEqual(t, "sort", SortBatch(lazy, []int{2, 0}), SortBatch(dense, []int{2, 0}))

	pl := PartitionBatchByKey(lazy, keys, 4)
	pd := PartitionBatchByKey(dense, keys, 4)
	for p := range pd {
		batchesEqual(t, "partition by key", pl[p], pd[p])
	}

	bounds := []Row{{int64(5), 12.0, "b", false, nil}, {int64(12), 3.0, "e", true, nil}}
	rl := PartitionBatchByRange(lazy, keys, bounds)
	rd := PartitionBatchByRange(dense, keys, bounds)
	for p := range rd {
		batchesEqual(t, "partition by range", rl[p].Materialize(), rd[p].Materialize())
	}

	aggs := []Agg{{AggCount, 0}, {AggSum, 1}, {AggMin, 2}, {AggMax, 4}}
	batchesEqual(t, "aggregate",
		HashAggregateBatch(lazy, []int{2}, aggs),
		HashAggregateBatch(dense, []int{2}, aggs))

	probe := BatchFromRows(randRows(rand.New(rand.NewSource(72)), 120))
	lazyProbe := FilterBatch(probe, func(i int) bool { return i%3 != 0 })
	batchesEqual(t, "join lazy build+probe",
		HashJoinBatch(lazy, []int{2}, lazyProbe, []int{2}),
		HashJoinBatch(dense, []int{2}, lazyProbe.Materialize(), []int{2}))

	// CompareBatchRows takes logical rows on both sides.
	for j := 0; j < lazy.Len; j++ {
		if CompareBatchRows(lazy, j, keys, dense, j, keys) != 0 {
			t.Fatalf("logical row %d differs between lazy and dense", j)
		}
	}
}

// TestSelCodecBoundary pins the materialization boundary: encoding a lazy
// batch yields exactly the dense encoding (selections never travel), and
// the store densifies on put.
func TestSelCodecBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	b := BatchFromRows(randRows(r, 90))
	lazy := lazyHalf(t, b)
	dense := lazy.Materialize()
	if !bytes.Equal(EncodeBatch(lazy), EncodeBatch(dense)) {
		t.Fatal("lazy encoding differs from dense")
	}
	if EncodedBatchSize(lazy) != len(EncodeBatch(dense)) {
		t.Fatal("EncodedBatchSize ignores the selection")
	}

	s := NewStore(1, 0)
	if err := s.PutBatch("job", 0, "k", lazy); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetBatch("k", nil)
	if !ok {
		t.Fatal("segment missing")
	}
	if got.Sel != nil {
		t.Fatal("store kept a lazy segment")
	}
	batchesEqual(t, "stored lazy segment", got, dense)

	// ConcatBatches over a mix of lazy and dense runs sees logical rows.
	cat := ConcatBatches([]*Batch{lazy, dense, lazyHalf(t, b)})
	if cat.Len != 3*dense.Len {
		t.Fatalf("concat Len = %d, want %d", cat.Len, 3*dense.Len)
	}
	catDense := ConcatBatches([]*Batch{dense, dense, dense})
	batchesEqual(t, "concat lazy runs", cat, catDense)
}
