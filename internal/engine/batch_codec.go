package engine

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Column codec: the wire format of a shuffle segment and the
// byte-accounting ground truth for the Store and Cache Workers. Layout, all
// integers little-endian:
//
//	uvarint rows, uvarint cols
//	per column:
//	  1 byte ColType, 1 byte hasNulls
//	  [hasNulls] ceil(rows/64) × 8-byte null-bitmap words
//	  payload:
//	    TInt64 / TFloat64: rows × 8 bytes (two's-complement / IEEE bits)
//	    TString:           per value uvarint length + bytes
//	    TBool:             ceil(rows/8) packed bytes
//
// Typed vectors are length-prefixed by the header's row count — no gob, no
// interface registration, no per-cell reflection. NULL slots encode their
// zero value; the bitmap is authoritative.
//
// Decoding copies each column's string region out of the input as a single
// slab and slices the individual values from it, so the input buffer may be
// reused while decoded strings stay alive together. Selection vectors never
// travel: encoding materializes a lazy batch first, and EncodedBatchSize
// counts a view's logical rows without materializing it.

// maxCountOnlyRows caps the decoded row count of a column-less
// (count-only) batch, whose payload carries no per-row bytes to bound it.
const maxCountOnlyRows = 1 << 20

// EncodedBatchSize returns the exact byte length EncodeBatch would produce
// — the shared size helper behind Store.PutBatch accounting. A selection
// view is sized as its dense encoding without being materialized: strings
// and the has-nulls byte are counted over the selected rows.
func EncodedBatchSize(b *Batch) int {
	if b == nil {
		return uvarintLen(0) + uvarintLen(0)
	}
	n := uvarintLen(uint64(b.Len)) + uvarintLen(uint64(len(b.Cols)))
	for c := range b.Cols {
		n += b.encodedColSize(&b.Cols[c])
	}
	return n
}

func (b *Batch) encodedColSize(c *Column) int {
	n := 2 // type + hasNulls
	if b.colHasNulls(c) {
		n += bitmapWords(b.Len) * 8
	}
	switch c.Type {
	case TInt64, TFloat64:
		n += b.Len * 8
	case TString:
		for j := 0; j < b.Len; j++ {
			s := c.Strs[b.physical(j)]
			n += uvarintLen(uint64(len(s))) + len(s)
		}
	case TBool:
		n += (b.Len + 7) / 8
	}
	return n
}

// colHasNulls reports what the encoding's has-nulls byte records for
// column c of b: whether any selected row is NULL (any bitmap word is set,
// for a dense batch).
func (b *Batch) colHasNulls(c *Column) bool {
	if b.Sel == nil || c.Nulls == nil {
		return c.hasNulls()
	}
	for _, s := range b.Sel {
		if bitGet(c.Nulls, int(s)) {
			return true
		}
	}
	return false
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodeBatch encodes the batch into a fresh exact-size buffer.
func EncodeBatch(b *Batch) []byte {
	return AppendBatch(make([]byte, 0, EncodedBatchSize(b)), b)
}

// AppendBatch appends the batch's encoding to dst (zero allocations when
// dst has capacity and the batch is dense).
func AppendBatch(dst []byte, b *Batch) []byte {
	b = b.Materialize()
	if b == nil {
		return binary.AppendUvarint(binary.AppendUvarint(dst, 0), 0)
	}
	dst = binary.AppendUvarint(dst, uint64(b.Len))
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for c := range b.Cols {
		dst = appendCol(dst, &b.Cols[c], b.Len)
	}
	return dst
}

func appendCol(dst []byte, c *Column, rows int) []byte {
	hasNulls := c.hasNulls()
	dst = append(dst, byte(c.Type))
	if hasNulls {
		dst = append(dst, 1)
		words := bitmapWords(rows)
		for w := 0; w < words; w++ {
			var v uint64
			if w < len(c.Nulls) {
				v = c.Nulls[w]
			}
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	} else {
		dst = append(dst, 0)
	}
	switch c.Type {
	case TInt64:
		for _, v := range c.Ints {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case TFloat64:
		for _, v := range c.Floats {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case TString:
		for _, s := range c.Strs {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	case TBool:
		nb := (rows + 7) / 8
		start := len(dst)
		dst = append(dst, make([]byte, nb)...)
		for i, v := range c.Bools {
			if v {
				dst[start+i/8] |= 1 << (uint(i) % 8)
			}
		}
	}
	return dst
}

// decoder walks an encoded batch with bounds checks on every read, so a
// truncated or corrupt payload errors instead of panicking or allocating
// unbounded memory.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("engine: batch codec: bad uvarint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.data) || d.off+n < d.off {
		return nil, fmt.Errorf("engine: batch codec: truncated at %d (need %d of %d)", d.off, n, len(d.data))
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) byte() (byte, error) {
	b, err := d.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// DecodeBatch decodes one batch into fresh storage, requiring the input to
// be fully consumed. Strings are copied out of data (one slab per column),
// so the input buffer may be reused.
func DecodeBatch(data []byte) (*Batch, error) {
	d := &decoder{data: data}
	rows64, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	cols64, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// A column costs ≥2 bytes, which bounds the column count by the payload
	// length before any allocation happens, and every column type costs ≥1
	// bit per row, bounding rows by 8× the payload. Column-less (count-only)
	// batches carry no per-row bytes, so row counts up to the fixed
	// maxCountOnlyRows cap are admitted regardless of payload length.
	if cols64 > uint64(len(data)) {
		return nil, fmt.Errorf("engine: batch codec: %d columns in %d bytes", cols64, len(data))
	}
	if rows64 > 8*uint64(len(data)) && (cols64 > 0 || rows64 > maxCountOnlyRows) {
		return nil, fmt.Errorf("engine: batch codec: %d rows in %d bytes", rows64, len(data))
	}
	b := &Batch{Len: int(rows64), Cols: make([]Column, int(cols64))}
	for c := range b.Cols {
		if err := d.decodeCol(&b.Cols[c], b.Len); err != nil {
			return nil, err
		}
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("engine: batch codec: %d trailing bytes", len(data)-d.off)
	}
	return b, nil
}

// stringRegion validates n uvarint-length-prefixed values in place (pass
// one), then copies the whole region — length prefixes included — as a
// single slab and slices each value from it (pass two). One allocation per
// region instead of one per string; the handful of prefix bytes kept alive
// inside the slab is the price of not building an offsets array.
func (d *decoder) stringRegion(n int) ([]string, error) {
	start := d.off
	for i := 0; i < n; i++ {
		ln, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if _, err := d.bytes(int(ln)); err != nil {
			return nil, err
		}
	}
	region := d.data[start:d.off]
	blob := string(region)
	out := make([]string, n)
	pos := 0
	for i := 0; i < n; i++ {
		ln, sz := binary.Uvarint(region[pos:])
		pos += sz
		out[i] = blob[pos : pos+int(ln)]
		pos += int(ln)
	}
	return out, nil
}

func (d *decoder) decodeCol(c *Column, rows int) error {
	tb, err := d.byte()
	if err != nil {
		return err
	}
	if tb > byte(TBool) {
		return fmt.Errorf("engine: batch codec: unknown column type %d", tb)
	}
	c.Type = ColType(tb)
	nf, err := d.byte()
	if err != nil {
		return err
	}
	if nf > 1 {
		return fmt.Errorf("engine: batch codec: bad null flag %d", nf)
	}
	if nf == 1 {
		words := bitmapWords(rows)
		raw, err := d.bytes(words * 8)
		if err != nil {
			return err
		}
		c.Nulls = make([]uint64, words)
		for w := 0; w < words; w++ {
			c.Nulls[w] = binary.LittleEndian.Uint64(raw[w*8:])
		}
	}
	switch c.Type {
	case TInt64:
		raw, err := d.bytes(rows * 8)
		if err != nil {
			return err
		}
		c.Ints = make([]int64, rows)
		for i := range c.Ints {
			c.Ints[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	case TFloat64:
		raw, err := d.bytes(rows * 8)
		if err != nil {
			return err
		}
		c.Floats = make([]float64, rows)
		for i := range c.Floats {
			c.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	case TString:
		c.Strs, err = d.stringRegion(rows)
		if err != nil {
			return err
		}
	case TBool:
		raw, err := d.bytes((rows + 7) / 8)
		if err != nil {
			return err
		}
		c.Bools = make([]bool, rows)
		for i := range c.Bools {
			c.Bools[i] = raw[i/8]&(1<<(uint(i)%8)) != 0
		}
	}
	return nil
}
