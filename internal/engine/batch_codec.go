package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Column codec: the wire format shuffle segments travel in (internal/rpc
// wraps it for the multi-process path) and the byte-accounting ground truth
// for the Store and Cache Workers. Layout, all integers little-endian:
//
//	uvarint rows, uvarint cols
//	per column:
//	  1 byte ColType, 1 byte hasNulls
//	  [hasNulls] ceil(rows/64) × 8-byte null-bitmap words
//	  payload:
//	    TInt64 / TFloat64: rows × 8 bytes (two's-complement / IEEE bits)
//	    TString:           per value uvarint length + bytes
//	    TBool:             ceil(rows/8) packed bytes
//	    TAny:              per value 1 kind byte + payload (see anyKind*)
//	    TDict:             uvarint dict size, per entry uvarint length +
//	                       bytes, then rows × dictBits(size) code bits
//	                       packed LSB-first
//
// Typed vectors are length-prefixed by the header's row count — no gob, no
// interface registration, no per-cell reflection. NULL slots encode their
// zero value; the bitmap is authoritative.
//
// Decoding copies each column's string region out of the input as a single
// slab and slices the individual values from it, so the input buffer may be
// reused while decoded strings stay alive together. Selection vectors never
// travel: encoding materializes a lazy batch first.

// TAny per-value kind bytes.
const (
	anyKindNull   = 0
	anyKindInt64  = 1
	anyKindFloat  = 2
	anyKindString = 3
	anyKindBool   = 4
	// anyKindOther carries fmt.Sprintf("%v") of a kind outside the engine's
	// value domain; it decodes as a string. Compare would panic on such a
	// value anyway — this keeps the codec total without gob.
	anyKindOther = 5
)

// maxCountOnlyRows caps the decoded row count whenever the payload length
// cannot bound it: column-less (count-only) batches, which carry no per-row
// bytes at all, and batches whose columns may cost under a bit per row
// (single-entry dictionaries pack rows at zero code bits).
const maxCountOnlyRows = 1 << 20

// dictBits returns the packed code width for a dictionary of n entries:
// enough bits to address every entry, zero when one entry (or none) makes
// every code trivially 0.
func dictBits(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// EncodedBatchSize returns the exact byte length AppendBatch would produce
// — the shared size helper behind Store.PutBatch accounting.
func EncodedBatchSize(b *Batch) int {
	b = b.Materialize()
	if b == nil {
		return uvarintLen(0) + uvarintLen(0)
	}
	n := uvarintLen(uint64(b.Len)) + uvarintLen(uint64(len(b.Cols)))
	for c := range b.Cols {
		n += encodedColSize(&b.Cols[c], b.Len)
	}
	return n
}

func encodedColSize(c *Column, rows int) int {
	n := 2 // type + hasNulls
	if c.hasNulls() {
		n += bitmapWords(rows) * 8
	}
	switch c.Type {
	case TInt64, TFloat64:
		n += rows * 8
	case TString:
		for _, s := range c.Strs {
			n += uvarintLen(uint64(len(s))) + len(s)
		}
	case TBool:
		n += (rows + 7) / 8
	case TAny:
		for i := range c.Anys {
			n += 1 + anyValueSize(c.Anys[i])
		}
	case TDict:
		n += uvarintLen(uint64(len(c.Dict)))
		for _, s := range c.Dict {
			n += uvarintLen(uint64(len(s))) + len(s)
		}
		n += (len(c.Codes)*dictBits(len(c.Dict)) + 7) / 8
	}
	return n
}

func anyValueSize(v Value) int {
	switch x := v.(type) {
	case nil:
		return 0
	case int64, float64:
		return 8
	case string:
		return uvarintLen(uint64(len(x))) + len(x)
	case bool:
		return 1
	default:
		s := fmt.Sprintf("%v", v)
		return uvarintLen(uint64(len(s))) + len(s)
	}
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
	b = b.Materialize()
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
	case TAny:
		for _, v := range c.Anys {
			dst = appendAnyValue(dst, v)
		}
	case TDict:
		dst = binary.AppendUvarint(dst, uint64(len(c.Dict)))
		for _, s := range c.Dict {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
		dst = appendPackedCodes(dst, c.Codes, dictBits(len(c.Dict)))
	}
	return dst
}

func appendAnyValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, anyKindNull)
	case int64:
		dst = append(dst, anyKindInt64)
		return binary.LittleEndian.AppendUint64(dst, uint64(x))
	case float64:
		dst = append(dst, anyKindFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	case string:
		dst = append(dst, anyKindString)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...)
	case bool:
		dst = append(dst, anyKindBool)
		if x {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		s := fmt.Sprintf("%v", v)
		dst = append(dst, anyKindOther)
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	}
}

// appendPackedCodes packs each code into w bits, LSB-first across bytes.
// Codes are masked to w bits, so padding bits in the final byte are always
// zero — the canonical form the fuzz fixpoint relies on.
func appendPackedCodes(dst []byte, codes []uint32, w int) []byte {
	if w == 0 {
		return dst
	}
	nb := (len(codes)*w + 7) / 8
	start := len(dst)
	dst = append(dst, make([]byte, nb)...)
	mask := uint32(1)<<uint(w) - 1
	bit := 0
	for _, code := range codes {
		v := code & mask
		rem := w
		for rem > 0 {
			sh := uint(bit % 8)
			took := 8 - int(sh)
			if took > rem {
				took = rem
			}
			dst[start+bit/8] |= byte(v << sh)
			v >>= uint(took)
			bit += took
			rem -= took
		}
	}
	return dst
}

// unpackCodes reads len(codes) w-bit values from raw, LSB-first.
func unpackCodes(codes []uint32, raw []byte, w int) {
	if w == 0 {
		for i := range codes {
			codes[i] = 0
		}
		return
	}
	bit := 0
	for i := range codes {
		var v uint32
		got := 0
		for got < w {
			sh := uint(bit % 8)
			took := 8 - int(sh)
			if took > w-got {
				took = w - got
			}
			v |= uint32((raw[bit/8]>>sh)&byte(uint(1)<<uint(took)-1)) << uint(got)
			bit += took
			got += took
		}
		codes[i] = v
	}
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

func (d *decoder) remaining() int { return len(d.data) - d.off }

// DecodeBatch decodes one batch into fresh storage, requiring the input to
// be fully consumed. Strings are copied out of data (one slab per column),
// so the input buffer may be reused.
//
//lint:hotpath
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
	// length before any allocation happens. Most column types cost ≥1 bit
	// per row, bounding rows by 8× the payload — but dictionary columns
	// pack rows at dictBits(size) bits, which is zero for a single-entry
	// dictionary, so row counts up to the fixed maxCountOnlyRows cap are
	// admitted regardless of payload length. Column-less (count-only)
	// batches carry no per-row bytes either and get the same cap.
	if cols64 > uint64(len(data)) {
		return nil, fmt.Errorf("engine: batch codec: %d columns in %d bytes", cols64, len(data))
	}
	if rows64 > 8*uint64(len(data)) && rows64 > maxCountOnlyRows {
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
	if tb > byte(TDict) {
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
	case TAny:
		// Each TAny value costs at least its kind byte, so the remaining
		// payload bounds the vector before it is allocated.
		if rows > d.remaining() {
			return fmt.Errorf("engine: batch codec: %d any values in %d bytes", rows, d.remaining())
		}
		c.Anys = make([]Value, rows)
		for i := range c.Anys {
			v, err := d.decodeAnyValue()
			if err != nil {
				return err
			}
			c.Anys[i] = v
		}
	case TDict:
		size64, err := d.uvarint()
		if err != nil {
			return err
		}
		// Each dictionary entry costs at least its length prefix.
		if size64 > uint64(d.remaining()) {
			return fmt.Errorf("engine: batch codec: dictionary of %d entries in %d bytes", size64, d.remaining())
		}
		if size64 == 0 && rows > 0 {
			return fmt.Errorf("engine: batch codec: %d dictionary rows with empty dictionary", rows)
		}
		size := int(size64)
		c.Dict, err = d.stringRegion(size)
		if err != nil {
			return err
		}
		w := dictBits(size)
		raw, err := d.bytes((rows*w + 7) / 8)
		if err != nil {
			return err
		}
		c.Codes = make([]uint32, rows)
		unpackCodes(c.Codes, raw, w)
		for _, code := range c.Codes {
			if code >= uint32(size) {
				return fmt.Errorf("engine: batch codec: dictionary code %d out of range %d", code, size)
			}
		}
	}
	return nil
}

func (d *decoder) decodeAnyValue() (Value, error) {
	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case anyKindNull:
		return nil, nil
	case anyKindInt64:
		raw, err := d.bytes(8)
		if err != nil {
			return nil, err
		}
		return int64(binary.LittleEndian.Uint64(raw)), nil
	case anyKindFloat:
		raw, err := d.bytes(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw)), nil
	case anyKindString, anyKindOther:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		raw, err := d.bytes(int(n))
		if err != nil {
			return nil, err
		}
		return string(raw), nil
	case anyKindBool:
		bb, err := d.byte()
		if err != nil {
			return nil, err
		}
		if bb > 1 {
			return nil, fmt.Errorf("engine: batch codec: bad bool byte %d", bb)
		}
		return bb == 1, nil
	default:
		return nil, fmt.Errorf("engine: batch codec: unknown any-kind %d", kind)
	}
}
