package engine

import "fmt"

// Batch is the engine's columnar record set: a fixed-schema slice of typed
// vectors plus per-column null bitmaps. It is the only representation
// between the engine's two row edges — BatchFromRows behind NewTable on the
// way in, AppendRows behind SinkBatch on the way out: scan, filter, join,
// aggregate, shuffle write, store and wire transfer all carry batches, so
// per-cell interface boxing is paid only at those edges.
//
// Zero-row batches. A batch with Len == 0 is valid with any number of
// columns, none included: &Batch{} is "no rows, layout unknown", which is
// what BatchFromRows(nil), PutBatch(nil) and a ConcatBatches of column-less
// runs yield. Every exported kernel, and Project, Gather and WithCol, accept
// one and return a zero-row result without dereferencing a key or column
// index. Code that reads b.Cols[k] itself must either hold a batch whose
// producer keeps the layout (Table.PartitionBatch, FilterBatch, the
// partitioners, the join and aggregate kernels, ConcatBatches of runs that
// have columns) or check Len first.
type Batch struct {
	Cols []Column
	Len  int // row count; every column holds exactly Len values
	// Sel is the batch's selection vector: when non-nil, the batch is a
	// lazy view over its columns' physical vectors and logical row j lives
	// at physical row Sel[j] (Len == len(Sel)). FilterBatch and the
	// partitioners produce these views, so a filter or a shuffle write costs
	// one index vector instead of a copy of every column; the kernels, the
	// store and ConcatBatches consume them in place, and Materialize or the
	// codec densifies. A nil Sel is the dense case: logical and physical
	// rows coincide.
	Sel []int32
}

// ColType identifies a column's physical vector type.
type ColType uint8

// Physical column types: the engine's whole value domain. A column holds
// values of one kind; BatchFromRows rejects a row set that mixes two.
const (
	TInt64 ColType = iota
	TFloat64
	TString
	TBool
)

func (t ColType) String() string {
	switch t {
	case TInt64:
		return "int64"
	case TFloat64:
		return "float64"
	case TString:
		return "string"
	case TBool:
		return "bool"
	}
	return fmt.Sprintf("ColType(%d)", uint8(t))
}

// Column is one typed vector. Exactly one of the payload slices is
// populated, selected by Type; null slots hold the zero value there and set
// their bit in Nulls. A nil Nulls means no nulls.
type Column struct {
	Type   ColType
	Nulls  []uint64 // bitmap, bit i set = row i is NULL; nil when null-free
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
}

// Typed column constructors (null-free).

// Int64Col wraps vals as a TInt64 column.
func Int64Col(vals []int64) Column { return Column{Type: TInt64, Ints: vals} }

// Float64Col wraps vals as a TFloat64 column.
func Float64Col(vals []float64) Column { return Column{Type: TFloat64, Floats: vals} }

// StringCol wraps vals as a TString column.
func StringCol(vals []string) Column { return Column{Type: TString, Strs: vals} }

// BoolCol wraps vals as a TBool column.
func BoolCol(vals []bool) Column { return Column{Type: TBool, Bools: vals} }

func bitGet(bm []uint64, i int) bool { return bm[i>>6]&(1<<(uint(i)&63)) != 0 }

func bitSet(bm []uint64, i int) { bm[i>>6] |= 1 << (uint(i) & 63) }

func bitmapWords(n int) int { return (n + 63) / 64 }

// IsNull reports whether row i of the column is NULL.
func (c *Column) IsNull(i int) bool { return c.Nulls != nil && bitGet(c.Nulls, i) }

// setNull marks row i NULL, allocating the bitmap on first use (n is the
// column's full length).
func (c *Column) setNull(i, n int) {
	if c.Nulls == nil {
		c.Nulls = make([]uint64, bitmapWords(n))
	}
	bitSet(c.Nulls, i)
}

// hasNulls reports whether any bit is set.
func (c *Column) hasNulls() bool {
	for _, w := range c.Nulls {
		if w != 0 {
			return true
		}
	}
	return false
}

// Value boxes row i of the column (nil for NULL). This is the row-edge
// read; batch kernels read the typed vectors directly.
func (c *Column) Value(i int) Value {
	if c.IsNull(i) {
		return nil
	}
	switch c.Type {
	case TInt64:
		return c.Ints[i]
	case TFloat64:
		return c.Floats[i]
	case TString:
		return c.Strs[i]
	default: // TBool
		return c.Bools[i]
	}
}

// length returns the column's value count.
func (c *Column) length() int {
	switch c.Type {
	case TInt64:
		return len(c.Ints)
	case TFloat64:
		return len(c.Floats)
	case TString:
		return len(c.Strs)
	default: // TBool
		return len(c.Bools)
	}
}

// NewBatch wraps pre-built columns, inferring the row count from the first
// column (0 columns = 0 rows). It panics on ragged columns — a kernel bug,
// not runtime data.
func NewBatch(cols ...Column) *Batch {
	n := 0
	if len(cols) > 0 {
		n = cols[0].length()
	}
	for i := range cols {
		if cols[i].length() != n {
			panic(fmt.Sprintf("engine: ragged batch: column %d has %d values, want %d", i, cols[i].length(), n))
		}
	}
	return &Batch{Cols: cols, Len: n}
}

// NumCols returns the column count.
func (b *Batch) NumCols() int { return len(b.Cols) }

// physical maps logical row j to its physical row in the column vectors.
func (b *Batch) physical(j int) int {
	if b.Sel == nil {
		return j
	}
	return int(b.Sel[j])
}

// Materialize densifies a selection-vector view into a batch whose columns
// hold exactly its logical rows (one typed gather). Dense batches return
// unchanged — the call is free on the common path, so boundaries
// (codec, store, row edge) invoke it unconditionally.
func (b *Batch) Materialize() *Batch {
	if b == nil || b.Sel == nil {
		return b
	}
	return b.Gather(b.Sel)
}

// Value boxes cell (col, row) — nil for NULL. Row is logical (selection
// vectors are applied).
func (b *Batch) Value(col, row int) Value { return b.Cols[col].Value(b.physical(row)) }

// IsNull reports whether cell (col, row) is NULL.
func (b *Batch) IsNull(col, row int) bool { return b.Cols[col].IsNull(b.physical(row)) }

// BatchFromRows converts rows into a batch: each column becomes the typed
// vector of its values' one kind (nil values are NULL bits). Ragged rows are
// tolerated — missing trailing cells read as NULL. A column that mixes two
// kinds, or holds a value outside int64/float64/string/bool, panics: like an
// incomparable key, it is a plan bug, not runtime data.
func BatchFromRows(rows []Row) *Batch {
	ncols := 0
	for _, r := range rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	b := &Batch{Cols: make([]Column, ncols), Len: len(rows)}
	for c := 0; c < ncols; c++ {
		b.Cols[c] = columnFromRows(rows, c)
	}
	return b
}

// columnFromRows builds column c of the rows. Two passes: infer the type,
// then fill the typed vector.
func columnFromRows(rows []Row, c int) Column {
	t, typed := TInt64, false // an all-NULL column's type is irrelevant: pick the cheapest
	for _, r := range rows {
		if c >= len(r) || r[c] == nil {
			continue
		}
		var vt ColType
		switch r[c].(type) {
		case int64:
			vt = TInt64
		case float64:
			vt = TFloat64
		case string:
			vt = TString
		case bool:
			vt = TBool
		default:
			panic(fmt.Sprintf("engine: column %d holds %T, not int64, float64, string or bool", c, r[c]))
		}
		if typed && vt != t {
			panic(fmt.Sprintf("engine: column %d mixes %v and %v values", c, t, vt))
		}
		t, typed = vt, true
	}
	n := len(rows)
	col := newCol(t, n)
	for i, r := range rows {
		if c >= len(r) || r[c] == nil {
			col.setNull(i, n)
			continue
		}
		switch t {
		case TInt64:
			col.Ints[i] = r[c].(int64)
		case TFloat64:
			col.Floats[i] = r[c].(float64)
		case TString:
			col.Strs[i] = r[c].(string)
		case TBool:
			col.Bools[i] = r[c].(bool)
		}
	}
	return col
}

// Rows materialises the batch as rows (the row-edge read).
func (b *Batch) Rows() []Row {
	return b.AppendRows(nil)
}

// AppendRows appends the batch's rows to dst. Row storage is carved from
// one slab; rows have len == cap, so appending to one copies out instead of
// clobbering its neighbour.
func (b *Batch) AppendRows(dst []Row) []Row {
	if b == nil || b.Len == 0 {
		return dst
	}
	nc := len(b.Cols)
	slab := make([]Value, b.Len*nc)
	for i := 0; i < b.Len; i++ {
		p := b.physical(i)
		r := slab[i*nc : (i+1)*nc : (i+1)*nc]
		for c := range b.Cols {
			r[c] = b.Cols[c].Value(p)
		}
		dst = append(dst, r)
	}
	return dst
}

// Project returns a batch holding the selected columns. Column vectors are
// shared, not copied — projection is free in the columnar model — and a
// selection vector is shared along with them.
func (b *Batch) Project(cols []int) *Batch {
	out := &Batch{Cols: make([]Column, len(cols)), Len: b.Len, Sel: b.Sel}
	for i, c := range cols {
		if b.Len == 0 && c >= len(b.Cols) {
			continue // zero rows, layout unknown: the column is empty anyway
		}
		out.Cols[i] = b.Cols[c]
	}
	return out
}

// WithCol returns the batch extended by one more column (shared vectors).
// The new column must have exactly Len values; a selection view
// materialises first so the new dense column lines up with the old ones.
func (b *Batch) WithCol(col Column) *Batch {
	if col.length() != b.Len {
		panic(fmt.Sprintf("engine: WithCol: %d values for %d-row batch", col.length(), b.Len))
	}
	b = b.Materialize()
	cols := make([]Column, len(b.Cols)+1)
	copy(cols, b.Cols)
	cols[len(b.Cols)] = col
	return &Batch{Cols: cols, Len: b.Len}
}

// Gather returns a new dense batch holding the physical rows sel (in that
// order). Each column dispatches on its type once and copies with a typed
// loop — the shared kernel behind sort, top-k, join and aggregate output
// and Materialize. Indices address the column vectors directly; callers
// composing over a selection view map logical indices through Sel first.
func (b *Batch) Gather(sel []int32) *Batch {
	out := &Batch{Cols: make([]Column, len(b.Cols)), Len: len(sel)}
	for c := range b.Cols {
		out.Cols[c] = gatherCol(&b.Cols[c], sel)
	}
	return out
}

func gatherCol(src *Column, sel []int32) Column {
	out := newCol(src.Type, len(sel))
	putRows(&out, 0, src, sel, len(sel))
	return out
}

// newCol returns an n-row column of type t holding zero values.
func newCol(t ColType, n int) Column {
	c := Column{Type: t}
	switch t {
	case TInt64:
		c.Ints = make([]int64, n)
	case TFloat64:
		c.Floats = make([]float64, n)
	case TString:
		c.Strs = make([]string, n)
	case TBool:
		c.Bools = make([]bool, n)
	}
	return c
}

// putRows copies n rows of src — the physical rows sel, or the first n when
// sel is nil — into dst from row off on, NULL bits included. dst has src's
// type and is fully allocated.
func putRows(dst *Column, off int, src *Column, sel []int32, n int) {
	switch src.Type {
	case TInt64:
		put(dst.Ints[off:], src.Ints, sel)
	case TFloat64:
		put(dst.Floats[off:], src.Floats, sel)
	case TString:
		put(dst.Strs[off:], src.Strs, sel)
	case TBool:
		put(dst.Bools[off:], src.Bools, sel)
	}
	if src.Nulls == nil {
		return
	}
	rows := dst.length()
	for j := 0; j < n; j++ {
		p := j
		if sel != nil {
			p = int(sel[j])
		}
		if bitGet(src.Nulls, p) {
			dst.setNull(off+j, rows)
		}
	}
}

// put writes src[sel[0]], src[sel[1]], … to dst, or copies src when sel is
// nil.
func put[T any](dst, src []T, sel []int32) {
	if sel == nil {
		copy(dst, src)
		return
	}
	for j, s := range sel {
		dst[j] = src[s]
	}
}

// ConcatBatches concatenates runs into one dense batch — the consumer's one
// copy of shuffled rows: each run, dense or a selection view, is gathered
// straight into the output, typed. Runs with rows must agree on column count
// and on each column's type, except that an all-NULL run (typed TInt64 by
// BatchFromRows whatever its producer meant) merges into any type; a real
// mismatch panics. Zero-row runs contribute nothing but their column count:
// when no run has rows the result is a zero-row batch as wide as the widest
// run, so an empty shuffle edge still reads with its producer's layout.
func ConcatBatches(runs []*Batch) *Batch {
	total, ncols, emptyCols := 0, -1, 0
	for _, r := range runs {
		if r == nil || r.Len == 0 {
			if r != nil && len(r.Cols) > emptyCols {
				emptyCols = len(r.Cols)
			}
			continue
		}
		total += r.Len
		if ncols < 0 {
			ncols = len(r.Cols)
		} else if len(r.Cols) != ncols {
			panic(fmt.Sprintf("engine: concat of %d-col and %d-col batches", ncols, len(r.Cols)))
		}
	}
	if ncols < 0 {
		return &Batch{Cols: make([]Column, emptyCols)}
	}
	out := &Batch{Cols: make([]Column, ncols), Len: total}
	for c := 0; c < ncols; c++ {
		out.Cols[c] = concatCol(runs, c, total)
	}
	return out
}

func concatCol(runs []*Batch, c, total int) Column {
	t, typed := TInt64, false
	for _, r := range runs {
		if r == nil || r.Len == 0 {
			continue
		}
		switch rt := r.Cols[c].Type; {
		case !typed:
			t, typed = rt, true
		case rt == t || allNull(r, c):
			// same type, or an all-NULL run, which merges into any type
		case allNullSoFar(runs, c, r):
			t = rt
		default:
			panic(fmt.Sprintf("engine: concat of %v and %v runs in column %d", t, rt, c))
		}
	}
	out := newCol(t, total)
	off := 0
	for _, r := range runs {
		if r == nil || r.Len == 0 {
			continue
		}
		if src := &r.Cols[c]; src.Type == t {
			putRows(&out, off, src, r.Sel, r.Len)
		} else {
			for j := off; j < off+r.Len; j++ { // an all-NULL run of another type
				out.setNull(j, total)
			}
		}
		off += r.Len
	}
	return out
}

// allNull reports whether every logical row of run r's column c is NULL.
func allNull(r *Batch, c int) bool {
	nulls := r.Cols[c].Nulls
	if nulls == nil {
		return r.Len == 0
	}
	for j := 0; j < r.Len; j++ {
		if !bitGet(nulls, r.physical(j)) {
			return false
		}
	}
	return true
}

// allNullSoFar reports whether every run before `until` has an all-NULL
// column c.
func allNullSoFar(runs []*Batch, c int, until *Batch) bool {
	for _, r := range runs {
		if r == until {
			return true
		}
		if r == nil || r.Len == 0 {
			continue
		}
		if !allNull(r, c) {
			return false
		}
	}
	return true
}
