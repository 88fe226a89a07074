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
// batch yields exactly the dense encoding (selections never travel) and is
// sized as such without materializing, the store keeps the view it is given
// and accounts its dense encoding, and ConcatBatches gathers views into a
// dense batch.
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
	if got != lazy {
		t.Fatal("store copied the segment instead of keeping the view")
	}
	if used := s.Stats().UsedBytes; used != int64(len(EncodeBatch(dense))) {
		t.Fatalf("UsedBytes = %d, want the dense encoding's %d", used, len(EncodeBatch(dense)))
	}
	batchesEqual(t, "stored lazy segment", got, dense)

	// ConcatBatches over a mix of lazy and dense runs sees logical rows.
	cat := ConcatBatches([]*Batch{lazy, dense, lazyHalf(t, b)})
	if cat.Sel != nil {
		t.Fatal("concat returned a view")
	}
	if cat.Len != 3*dense.Len {
		t.Fatalf("concat Len = %d, want %d", cat.Len, 3*dense.Len)
	}
	catDense := ConcatBatches([]*Batch{dense, dense, dense})
	batchesEqual(t, "concat lazy runs", cat, catDense)
}

// TestShuffleViewEquivalence drives the copy-once shuffle end to end on
// random inputs: producers partition dense or lazy batches (~14 % NULLs, a
// kind-mixed TAny column) by key or by range into selection views, the store
// keeps each view and accounts its dense encoding, and every consumer
// concatenates its runs in producer order — which must equal the row
// oracle's partitions of the same rows, concatenated the same way, as a
// dense batch.
func TestShuffleViewEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	keys := []int{0, 2}
	bounds := []Row{{int64(5), nil, "b"}, {int64(12), nil, "e"}}
	for iter := 0; iter < 40; iter++ {
		byRange := iter%2 == 1
		producers := 1 + r.Intn(4)
		consumers := 2 + r.Intn(6)
		if byRange {
			consumers = len(bounds) + 1
		}
		s := NewStore(3, 0)
		want := make([][]Row, consumers)
		var wantBytes int64
		for p := 0; p < producers; p++ {
			rows := randRows(r, r.Intn(150))
			b := BatchFromRows(rows)
			if r.Intn(2) == 0 {
				b = FilterBatch(b, func(i int) bool { return i%3 != 1 })
				var kept []Row
				for i, row := range rows {
					if i%3 != 1 {
						kept = append(kept, row)
					}
				}
				rows = kept
			}
			var views []*Batch
			var wantParts [][]Row
			if byRange {
				views = PartitionBatchByRange(b, keys, bounds)
				wantParts = PartitionByRange(rows, keys, bounds)
			} else {
				views = PartitionBatchByKey(b, keys, consumers)
				wantParts = PartitionByKey(rows, keys, consumers)
			}
			for c, v := range views {
				enc := EncodeBatch(v)
				if size := EncodedBatchSize(v); size != len(enc) {
					t.Fatalf("iter %d producer %d part %d: EncodedBatchSize %d, encoding %d bytes", iter, p, c, size, len(enc))
				}
				wantBytes += int64(len(enc))
				if err := s.PutBatch("job", p, SegmentKey("job", "a", "b", p, c), v); err != nil {
					t.Fatal(err)
				}
				want[c] = append(want[c], wantParts[c]...)
			}
		}
		if used := s.Stats().UsedBytes; used != wantBytes {
			t.Fatalf("iter %d: UsedBytes = %d, want the dense encodings' %d", iter, used, wantBytes)
		}
		for c := 0; c < consumers; c++ {
			runs := make([]*Batch, producers)
			for p := range runs {
				runs[p], _ = s.GetBatch(SegmentKey("job", "a", "b", p, c), nil)
			}
			got := ConcatBatches(runs)
			if got.Sel != nil {
				t.Fatalf("iter %d consumer %d: concatenation is a view", iter, c)
			}
			rowsEqual(t, "shuffled partition", got.Rows(), want[c])
		}
	}

	// A single view run — a one-producer edge — still comes back dense.
	b := BatchFromRows(randRows(r, 100))
	view := PartitionBatchByKey(FilterBatch(b, func(i int) bool { return i%2 == 0 }), keys, 3)[0]
	got := ConcatBatches([]*Batch{view})
	if got.Sel != nil || got.Len != view.Len {
		t.Fatalf("single view run: Sel %v, Len %d, want dense %d rows", got.Sel != nil, got.Len, view.Len)
	}
	batchesEqual(t, "single view run", got, view)
}
