package engine

// Dictionary encoding: DictifyBatch rewrites low-cardinality plain string
// columns as TDict (dictionary + packed codes) at storage and wire
// boundaries — Store.PutBatch and the rpc codec — where the smaller encoding
// pays for the scan. Kernels accept both representations, and row hashes
// are computed over the dictionary strings, so a dictified batch hashes,
// joins and partitions bit-identically to its plain form.

// maxDictEntries bounds auto-dictionarization: beyond 256 distinct values
// the dictionary scan costs more than the duplicate strings save, and the
// code width passes a byte.
const maxDictEntries = 256

// DictifyBatch returns a batch whose eligible plain string columns are
// dictionary-encoded; columns are rewritten only when the encoded
// dictionary form is strictly smaller than the plain form. Ineligible
// batches come back unchanged (same pointer); lazy batches materialize
// first.
func DictifyBatch(b *Batch) *Batch {
	if b == nil {
		return nil
	}
	b = b.Materialize()
	var out *Batch
	for i := range b.Cols {
		dc, ok := dictifyCol(&b.Cols[i], b.Len)
		if !ok {
			continue
		}
		if out == nil {
			cols := make([]Column, len(b.Cols))
			copy(cols, b.Cols)
			out = &Batch{Cols: cols, Len: b.Len}
		}
		out.Cols[i] = dc
	}
	if out == nil {
		return b
	}
	return out
}

// dictifyCol builds the dictionary form of a plain string column, in
// first-occurrence order so equal inputs dictify identically. NULL slots
// hold the empty string (the column's zero value), so they code like any
// other row and the bitmap stays authoritative.
func dictifyCol(c *Column, rows int) (Column, bool) {
	if c.Type != TString || rows == 0 {
		return Column{}, false
	}
	idx := make(map[string]uint32, 16)
	codes := make([]uint32, rows)
	dict := make([]string, 0, 16)
	dictBytes := 0
	plainBytes := 0
	for i, s := range c.Strs {
		plainBytes += uvarintLen(uint64(len(s))) + len(s)
		code, seen := idx[s]
		if !seen {
			if len(dict) == maxDictEntries {
				return Column{}, false
			}
			code = uint32(len(dict))
			idx[s] = code
			dict = append(dict, s)
			dictBytes += uvarintLen(uint64(len(s))) + len(s)
		}
		codes[i] = code
	}
	encoded := uvarintLen(uint64(len(dict))) + dictBytes + (rows*dictBits(len(dict))+7)/8
	if encoded >= plainBytes {
		return Column{}, false
	}
	return Column{Type: TDict, Dict: dict, Codes: codes, Nulls: c.Nulls}, true
}
