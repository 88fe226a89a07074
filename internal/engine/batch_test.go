package engine

import (
	"math/rand"
	"reflect"
	"testing"
)

// randRows builds one column of each kind (int64, float64, string, bool),
// each with ~14% NULLs, so every typed vector lane gets exercised. A quarter
// of the float64 column is integral and in the int64 column's range, so a
// cross-kind numeric key (column 0 against column 1) finds matches.
func randRows(r *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		row := Row{
			int64(r.Intn(20)),
			float64(r.Intn(100)) / 4,
			string(rune('a' + r.Intn(6))),
			r.Intn(2) == 0,
		}
		for c := range row {
			if r.Intn(7) == 0 {
				row[c] = nil
			}
		}
		rows[i] = row
	}
	return rows
}

// equivInput is one input of a batch-vs-row equivalence test, in both forms.
type equivInput struct {
	rows  []Row
	batch *Batch
}

// equivInputs returns n random rows plus the two zero-row shapes — column-
// less (layout unknown) and typed (layout kept) — whose row form is no rows.
func equivInputs(r *rand.Rand, n int) []equivInput {
	rows := randRows(r, n)
	b := BatchFromRows(rows)
	return []equivInput{{rows, b}, {nil, &Batch{}}, {nil, b.Gather(nil)}}
}

func rowsEqual(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %#v, want %#v", what, i, got[i], want[i])
		}
	}
}

func TestCompareNilTotal(t *testing.T) {
	if Compare(nil, nil) != 0 {
		t.Error("Compare(nil, nil) != 0")
	}
	for _, v := range []Value{int64(0), int64(-5), float64(0), "", "a", false, true} {
		if Compare(nil, v) != -1 {
			t.Errorf("Compare(nil, %#v) = %d, want -1", v, Compare(nil, v))
		}
		if Compare(v, nil) != 1 {
			t.Errorf("Compare(%#v, nil) = %d, want 1", v, Compare(v, nil))
		}
	}
	// NULL sorts first.
	rows := []Row{{int64(2)}, {nil}, {int64(1)}, {nil}}
	SortRows(rows, []int{0})
	if rows[0][0] != nil || rows[1][0] != nil || rows[2][0] != int64(1) || rows[3][0] != int64(2) {
		t.Errorf("sorted = %v", rows)
	}
}

func TestBatchFromRowsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rows := randRows(r, 257) // not a multiple of 64: partial bitmap word
	b := BatchFromRows(rows)
	if b.Len != len(rows) || b.NumCols() != 4 {
		t.Fatalf("batch %dx%d", b.Len, b.NumCols())
	}
	wantTypes := []ColType{TInt64, TFloat64, TString, TBool}
	for c, w := range wantTypes {
		if b.Cols[c].Type != w {
			t.Errorf("col %d type = %v, want %v", c, b.Cols[c].Type, w)
		}
	}
	rowsEqual(t, "round trip", b.Rows(), rows)

	// Ragged rows: short rows read as NULL in the missing cells.
	ragged := []Row{{int64(1), "x"}, {int64(2)}, nil}
	rb := BatchFromRows(ragged)
	if rb.Len != 3 || rb.NumCols() != 2 {
		t.Fatalf("ragged %dx%d", rb.Len, rb.NumCols())
	}
	if !rb.IsNull(1, 1) || !rb.IsNull(0, 2) || !rb.IsNull(1, 2) || rb.Value(1, 0) != "x" {
		t.Errorf("ragged cells: %v", rb.Rows())
	}

	// A column of two kinds, or of a kind outside the domain, is a plan
	// bug: the panic names the column and what it found there.
	for _, tc := range []struct {
		rows []Row
		want string
	}{
		{[]Row{{"x", int64(1)}, {"y", nil}, {"z", 2.5}}, "engine: column 1 mixes int64 and float64 values"},
		{[]Row{{nil}, {"s"}, {true}}, "engine: column 0 mixes string and bool values"},
		{[]Row{{1}}, "engine: column 0 holds int, not int64, float64, string or bool"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("BatchFromRows(%v) panicked with %v, want %q", tc.rows, got, tc.want)
				}
			}()
			BatchFromRows(tc.rows)
		}()
	}
}

func TestHashBatchMatchesRowHash(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rows := randRows(r, 300)
	b := BatchFromRows(rows)
	for _, keys := range [][]int{{0}, {1}, {2}, {0, 1, 2, 3}, {3, 2}} {
		dst := make([]uint64, b.Len)
		HashBatchInto(b, keys, dst)
		for i, row := range rows {
			if want := Hash(row, keys); dst[i] != want {
				t.Fatalf("keys %v row %d: batch hash %x, row hash %x", keys, i, dst[i], want)
			}
		}
	}
	// Numeric normalisation across vector types: int64 5 and float64 5.0
	// must co-hash whichever vector they sit in.
	ints := BatchFromRows([]Row{{int64(5)}})
	floats := BatchFromRows([]Row{{float64(5)}})
	hi := make([]uint64, 1)
	hf := make([]uint64, 1)
	HashBatchInto(ints, []int{0}, hi)
	HashBatchInto(floats, []int{0}, hf)
	if hi[0] != hf[0] {
		t.Error("int64 5 and float64 5.0 hash differently")
	}
}

func TestFilterBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	keep := func(i int) bool { return i%3 != 0 }
	for _, in := range equivInputs(r, 200) {
		var want []Row
		for i, row := range in.rows {
			if keep(i) {
				want = append(want, row)
			}
		}
		rowsEqual(t, "filter", FilterBatch(in.batch, keep).Rows(), want)
		if got := FilterBatch(in.batch, func(int) bool { return false }); got.Len != 0 {
			t.Errorf("empty filter kept %d rows", got.Len)
		}
	}
}

func TestProjectAndGatherEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	rows := randRows(r, 100)
	b := BatchFromRows(rows)
	p := b.Project([]int{3, 0, 0, 2})
	var want []Row
	for _, row := range rows {
		want = append(want, Row{row[3], row[0], row[0], row[2]})
	}
	rowsEqual(t, "project", p.Rows(), want)

	sel := []int32{99, 0, 50, 50, 7}
	g := b.Gather(sel)
	want = want[:0]
	for _, i := range sel {
		want = append(want, rows[i])
	}
	rowsEqual(t, "gather", g.Rows(), want)

	// Zero rows project and gather to zero rows, whatever the layout.
	for _, empty := range []*Batch{{}, b.Gather(nil)} {
		if p := empty.Project([]int{3, 0}); p.Len != 0 || p.NumCols() != 2 {
			t.Errorf("zero-row project = %dx%d", p.Len, p.NumCols())
		}
		if g := empty.Gather(nil); g.Len != 0 {
			t.Errorf("zero-row gather has %d rows", g.Len)
		}
	}
}

func TestSortBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, keys := range [][]int{{0}, {1}, {2}, {3}, {2, 0}, {3, 1, 0}} {
		for _, in := range equivInputs(r, 150) {
			want := append([]Row(nil), in.rows...)
			SortRows(want, keys)
			rowsEqual(t, "sort", SortBatch(in.batch, keys).Rows(), want)
		}
	}
}

// TestTopKBatchEquivalence pins TopKBatch to the row TopK/TopKDesc heaps:
// every k from none to more than all, over keys full of duplicates and
// NULLs (randRows), through dense and selection-vector inputs.
func TestTopKBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, in := range equivInputs(r, 150) {
		lazy := FilterBatch(in.batch, func(i int) bool { return i%2 == 0 })
		var half []Row
		for i := 0; i < len(in.rows); i += 2 {
			half = append(half, in.rows[i])
		}
		for _, keys := range [][]int{{0}, {2}, {3, 1}, {2, 0}} {
			for _, k := range []int{-1, 0, 1, 7, 150, 1000} {
				rowsEqual(t, "top-k", TopKBatch(in.batch, keys, k, false).Rows(), TopK(in.rows, keys, k))
				rowsEqual(t, "top-k desc", TopKBatch(in.batch, keys, k, true).Rows(), TopKDesc(in.rows, keys, k))
				rowsEqual(t, "top-k lazy", TopKBatch(lazy, keys, k, false).Rows(), TopK(half, keys, k))
			}
		}
	}
}

func TestHashJoinBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	builds := equivInputs(r, 80)
	probes := equivInputs(r, 120)
	for _, tc := range []struct{ bk, pk []int }{
		{[]int{0}, []int{0}},
		{[]int{2, 3}, []int{2, 3}},
		{[]int{1}, []int{1}},
		{[]int{0}, []int{1}}, // cross-kind numeric keys: int64 build, float64 probe
	} {
		for _, build := range builds {
			for _, probe := range probes {
				want := Drain(NewHashJoin(build.rows, tc.bk, NewSliceIter(probe.rows), tc.pk))
				got := HashJoinBatch(build.batch, tc.bk, probe.batch, tc.pk)
				// Row join emits probe||build; batch join emits probe cols
				// then build cols — same layout, same order.
				rowsEqual(t, "join", got.Rows(), want)
			}
		}
	}
}

func TestHashAggregateBatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		keys []int
		aggs []Agg
	}{
		{[]int{0}, []Agg{{AggSum, 1}, {AggCount, 0}}},
		{[]int{2}, []Agg{{AggSum, 0}, {AggMin, 1}, {AggMax, 1}}},
		{[]int{2, 3}, []Agg{{AggCount, 0}, {AggMin, 2}, {AggMax, 0}}},
		{[]int{1}, []Agg{{AggSum, 1}, {AggCount, 1}, {AggMin, 0}}},
		{[]int{0, 1, 2, 3}, []Agg{{AggCount, 0}}},
		{[]int{3}, nil}, // distinct
	} {
		for _, in := range equivInputs(r, 400) {
			want := HashAggregate(in.rows, tc.keys, tc.aggs)
			got := HashAggregateBatch(in.batch, tc.keys, tc.aggs)
			rowsEqual(t, "aggregate", got.Rows(), want)
			if got.NumCols() != len(tc.keys)+len(tc.aggs) {
				t.Errorf("aggregate of %d rows has %d columns", in.batch.Len, got.NumCols())
			}
		}
	}
}

func TestPartitionBatchByKeyEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, in := range equivInputs(r, 300) {
		for _, n := range []int{1, 2, 7} {
			wantParts := PartitionByKey(in.rows, []int{0, 2}, n)
			gotParts := PartitionBatchByKey(in.batch, []int{0, 2}, n)
			if len(gotParts) != len(wantParts) {
				t.Fatalf("n=%d: %d parts, want %d", n, len(gotParts), len(wantParts))
			}
			for p := range wantParts {
				rowsEqual(t, "partition", gotParts[p].Rows(), wantParts[p])
			}
		}
	}
}

func TestPartitionBatchByRangeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	bounds := []Row{{int64(5)}, {int64(12)}}
	for _, in := range equivInputs(r, 200) {
		wantParts := PartitionByRange(in.rows, []int{0}, bounds)
		gotParts := PartitionBatchByRange(in.batch, []int{0}, bounds)
		if len(gotParts) != len(wantParts) {
			t.Fatalf("%d parts, want %d", len(gotParts), len(wantParts))
		}
		for p := range wantParts {
			rowsEqual(t, "range partition", gotParts[p].Rows(), wantParts[p])
		}
	}
}

func TestConcatBatches(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randRows(r, 70)
	b := randRows(r, 130)
	got := ConcatBatches([]*Batch{BatchFromRows(a), {}, BatchFromRows(b)})
	rowsEqual(t, "concat", got.Rows(), append(append([]Row(nil), a...), b...))

	// An all-NULL run merges into any type; a real kind mismatch across
	// runs panics.
	ints := BatchFromRows([]Row{{int64(1)}})
	strs := BatchFromRows([]Row{{"s"}})
	nulls := BatchFromRows([]Row{{nil}})
	n := ConcatBatches([]*Batch{ints, nulls})
	if n.Cols[0].Type != TInt64 {
		t.Errorf("int+null concat type = %v", n.Cols[0].Type)
	}
	rowsEqual(t, "int+null concat", n.Rows(), []Row{{int64(1)}, {nil}})
	s := ConcatBatches([]*Batch{nulls, strs})
	if s.Cols[0].Type != TString {
		t.Errorf("null+string concat type = %v", s.Cols[0].Type)
	}
	rowsEqual(t, "null+string concat", s.Rows(), []Row{{nil}, {"s"}})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("concat of an int64 run and a string run did not panic")
			}
		}()
		ConcatBatches([]*Batch{ints, nulls, strs})
	}()

	// Runs without rows concatenate to zero rows that keep the runs' width —
	// an empty shuffle edge reads with its producer's layout.
	if e := ConcatBatches([]*Batch{{}, BatchFromRows(a).Gather(nil), nil}); e.Len != 0 || e.NumCols() != 4 {
		t.Errorf("all-empty concat = %dx%d, want 0x4", e.Len, e.NumCols())
	}
}
