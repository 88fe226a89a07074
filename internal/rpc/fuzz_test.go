// An external test package: internal/rpc itself imports nothing from the
// tree, and this target fuzzes the engine's codec.
package rpc_test

import (
	"math"
	"testing"

	"swift/internal/engine"
)

// FuzzBatchCodec hammers the wire codec from both directions: arbitrary
// bytes must decode to an error or a batch — never a panic, never an
// allocation bomb — and whatever decodes must survive the re-encode
// round trip semantically, with the re-encoding a fixpoint (a crafted
// input may be a non-canonical spelling — an all-zero null bitmap, set
// padding bits in a packed bool column — so first-decode byte identity
// is not required, but encode∘decode must converge immediately).
func FuzzBatchCodec(f *testing.F) {
	encode := engine.EncodeBatch
	seedBatches := []*engine.Batch{
		{}, // empty: zero rows, zero columns
		engine.NewBatch(engine.Int64Col([]int64{1, -2, 3})),
		engine.NewBatch(
			engine.Int64Col([]int64{5, 6}),
			engine.Float64Col([]float64{0.5, -1.25}),
			engine.StringCol([]string{"a", ""}),
			engine.BoolCol([]bool{true, false}),
		),
		// All-NULL columns and a mixed (TAny) column.
		engine.BatchFromRows([]engine.Row{{nil, int64(1)}, {nil, "s"}, {nil, nil}}),
		{Len: 9}, // rows without columns (count-only segment)
	}
	for _, b := range seedBatches {
		f.Add(encode(b))
	}
	// Low-cardinality string columns and a lazy filtered batch (which
	// must encode as its dense form).
	f.Add(encode(engine.NewBatch(
		engine.StringCol([]string{"x", "y", "x", "x", "y", "x", "z", "x", "x", "x"}))))
	f.Add(encode(engine.NewBatch(
		engine.StringCol([]string{"c", "c", "c", "c", "c", "c", "c", "c"}),
		engine.Int64Col([]int64{1, 2, 3, 4, 5, 6, 7, 8}))))
	f.Add(encode(engine.FilterBatch(seedBatches[2], func(i int) bool { return i%2 == 0 })))
	// Truncated and corrupt variants seed the error paths. The last two
	// carry column type 5, which is no column type, and must be rejected,
	// as must the seed_dict_* corpus files that carry it too.
	full := encode(seedBatches[2])
	f.Add(full[:1])
	f.Add(full[:len(full)/2])
	f.Add(append(append([]byte(nil), full...), 0x00))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f, 0x02})
	f.Add([]byte{1, 1, 5, 0, 3, 1, 'a', 1, 'b', 1, 'c', 0b11})
	f.Add([]byte{3, 1, 5, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := engine.DecodeBatch(data)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		enc := encode(b)
		b2, err := engine.DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if b2.Len != b.Len || b2.NumCols() != b.NumCols() {
			t.Fatalf("shape changed: %dx%d -> %dx%d", b.Len, b.NumCols(), b2.Len, b2.NumCols())
		}
		for c := 0; c < b.NumCols(); c++ {
			if gt, wt := b2.Cols[c].Type, b.Cols[c].Type; gt != wt {
				t.Fatalf("col %d type changed: %v -> %v", c, wt, gt)
			}
			for i := 0; i < b.Len; i++ {
				if b2.IsNull(c, i) != b.IsNull(c, i) || !valueEq(b2.Value(c, i), b.Value(c, i)) {
					t.Fatalf("cell (%d,%d) changed: %#v -> %#v", c, i, b.Value(c, i), b2.Value(c, i))
				}
			}
		}
		// Canonical from the first re-encoding onward.
		if enc2 := encode(b2); string(enc2) != string(enc) {
			t.Fatalf("encoding not a fixpoint: %d vs %d bytes", len(enc), len(enc2))
		}
		// The decoded batch must be internally consistent enough for the
		// row adapter to walk it.
		for _, r := range b.Rows() {
			if len(r) != b.NumCols() {
				t.Fatalf("row width %d, batch has %d cols", len(r), b.NumCols())
			}
		}
	})
}

// valueEq compares cell values; NaN floats (reachable from crafted bit
// patterns) compare by bits so the oracle stays reflexive.
func valueEq(a, b engine.Value) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return a == b
}
