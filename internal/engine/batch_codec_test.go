package engine

import (
	"math/rand"
	"testing"
)

// batchesEqual compares semantically: same shape, types, and per-cell
// value/nullness (bitmap storage may differ, e.g. nil vs all-zero words,
// and either side may be a selection view).
func batchesEqual(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if got.Len != want.Len || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Len, got.NumCols(), want.Len, want.NumCols())
	}
	for c := range want.Cols {
		if gt, wt := got.Cols[c].Type, want.Cols[c].Type; gt != wt {
			t.Fatalf("%s: col %d type %v, want %v", what, c, gt, wt)
		}
		for i := 0; i < want.Len; i++ {
			if got.IsNull(c, i) != want.IsNull(c, i) || got.Value(c, i) != want.Value(c, i) {
				t.Fatalf("%s: cell (%d,%d) = %#v/null=%v, want %#v/null=%v", what, c, i,
					got.Value(c, i), got.IsNull(c, i), want.Value(c, i), want.IsNull(c, i))
			}
		}
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	b := BatchFromRows(randRows(r, 129))
	enc := EncodeBatch(b)
	if len(enc) != EncodedBatchSize(b) {
		t.Fatalf("encoded %d bytes, size helper says %d", len(enc), EncodedBatchSize(b))
	}
	dec, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	batchesEqual(t, "round trip", dec, b)
}

func TestBatchCodecEmptyAndAllNull(t *testing.T) {
	for _, b := range []*Batch{
		{},                                      // zero columns, zero rows
		NewBatch(Int64Col(nil), StringCol(nil)), // columns, zero rows
		BatchFromRows([]Row{{nil, nil}, {nil, nil}, {nil, nil}}), // all-NULL columns
		{Len: 4}, // rows but no columns (count-only segment)
	} {
		enc := EncodeBatch(b)
		if len(enc) != EncodedBatchSize(b) {
			t.Fatalf("encoded %d bytes, size helper says %d", len(enc), EncodedBatchSize(b))
		}
		dec, err := DecodeBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		batchesEqual(t, "empty/all-null", dec, b)
	}
}

func TestBatchCodecTruncationErrors(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	b := BatchFromRows(randRows(r, 40))
	enc := EncodeBatch(b)
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeBatch(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(enc))
		}
	}
	// Trailing garbage is an error, not silently ignored.
	if _, err := DecodeBatch(append(append([]byte(nil), enc...), 0xff)); err == nil {
		t.Error("trailing byte accepted")
	}
	// A header promising absurd dimensions must error, not allocate.
	if _, err := DecodeBatch([]byte{0xff, 0xff, 0xff, 0xff, 0x7f, 0x01}); err == nil {
		t.Error("absurd row count accepted")
	}
	// Column types end at TBool (3): 4 was the boxed lane, whose kind byte 0
	// was a NULL, and 5 the dictionary lane. One row, one column, no nulls.
	for _, tb := range []byte{4, 5} {
		if _, err := DecodeBatch([]byte{1, 1, tb, 0, 0}); err == nil {
			t.Errorf("column type %d accepted", tb)
		}
	}
}

func TestEncodeBatchAppendReuse(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	b := BatchFromRows(randRows(r, 64))
	buf := make([]byte, 0, EncodedBatchSize(b))
	buf = AppendBatch(buf, b)
	dec, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	batchesEqual(t, "append reuse", dec, b)
}
