package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// The row kernels: the reference implementation the batch plane is checked
// against. No production code runs them — plans, the store and the cache
// client carry batches only — but every exported batch kernel is pinned to
// one of these by a Test*Equivalence/Matches/Parity test (swiftvet's
// batchparity enforces that), so they live here, in package engine's test
// files, written the obvious row-at-a-time way on purpose. So do the value
// helpers they are built on — Compare, hashValue and the accCell
// accumulators — since the batch kernels compare, hash and fold typed
// vectors instead.

// Compare orders two values: numerics numerically (int64/float64), strings
// lexicographically, booleans false<true. Mixed numeric kinds compare as
// float64. NULL (nil) is total: it sorts before every non-NULL value and
// NULL == NULL, matching the batch null-bitmap semantics. It panics on
// incomparable non-nil kinds — a plan bug, not runtime data — as colCompare
// does.
func Compare(a, b Value) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		}
		return 1
	}
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		case float64:
			return cmpFloat(float64(av), bv)
		}
	case float64:
		switch bv := b.(type) {
		case float64:
			return cmpFloat(av, bv)
		case int64:
			return cmpFloat(av, float64(bv))
		}
	case string:
		if bv, ok := b.(string); ok {
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		}
	case bool:
		if bv, ok := b.(bool); ok {
			switch {
			case !av && bv:
				return -1
			case av && !bv:
				return 1
			}
			return 0
		}
	}
	panic(fmt.Sprintf("engine: incomparable values %T and %T", a, b))
}

// tagOther marks a value outside the engine's domain; the oracle hashes its
// fmt form so Hash stays total over any row.
const tagOther = 0x3f

// hashValue folds one key value into h. NULL hashes by its own tag, so nil
// keys co-partition with the batch null bitmap's hashing.
func hashValue(h uint64, v Value) uint64 {
	switch x := v.(type) {
	case int64:
		return hashUint64(hashByte(h, tagNumber), uint64(x))
	case float64:
		return hashFloatValue(h, x)
	case string:
		return hashString(hashByte(h, tagString), x)
	case bool:
		h = hashByte(h, tagBool)
		if x {
			return hashByte(h, 1)
		}
		return hashByte(h, 0)
	case nil:
		return hashByte(h, tagNull)
	default:
		return hashString(hashByte(h, tagOther), fmt.Sprintf("%v", v))
	}
}

// accCell is one (group, aggregate) accumulator over boxed values, the
// state of the row aggregates. Sum/Count state is held unboxed; boxing
// happens once per group at emit time. A sum whose inputs mix int64 and
// float64 turns float at its first float64, as SQL's numeric promotion does.
type accCell struct {
	i    int64   // integer sum / count
	f    float64 // float sum once the stream turns float
	v    Value   // current Min/Max winner (already boxed by the input row)
	isF  bool
	seen bool
}

func (c *accCell) fold(kind AggKind, v Value) {
	// NULL semantics shared with the batch kernels: Count counts rows;
	// Sum/Min/Max skip NULL inputs (a NULL-only group yields NULL).
	if v == nil && kind != AggCount {
		return
	}
	switch kind {
	case AggCount:
		c.i++
	case AggSum:
		switch x := v.(type) {
		case int64:
			if c.isF {
				c.f += float64(x)
			} else {
				c.i += x
			}
		case float64:
			if !c.isF {
				c.isF = true
				c.f = float64(c.i)
			}
			c.f += x
		default:
			panic("engine: sum over non-numeric values")
		}
	case AggMin:
		if !c.seen || Compare(v, c.v) < 0 {
			c.v = v
		}
	case AggMax:
		if !c.seen || Compare(v, c.v) > 0 {
			c.v = v
		}
	}
	c.seen = true
}

// value boxes the accumulator result. Count of an empty stream is 0, like
// the previous implementation's nil-accumulator substitution.
func (c *accCell) value(kind AggKind) Value {
	switch kind {
	case AggCount:
		return c.i
	case AggSum:
		if !c.seen {
			return nil
		}
		if c.isF {
			return c.f
		}
		return c.i
	case AggMin, AggMax:
		return c.v
	}
	return c.v
}

// CompareRows orders rows by the given key columns.
func CompareRows(a, b Row, keys []int) int {
	for _, k := range keys {
		if c := Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// Hash computes a partition-stable hash of the key columns without
// allocating for int64, float64, string or bool values. Numeric values are
// normalized before hashing: a float64 that is exactly an integer hashes
// identically to the equal int64, so mixed-kind keys that Compare as equal
// land in the same shuffle partition and join/aggregate bucket. It is the
// definition HashBatchInto reproduces column-at-a-time.
func Hash(r Row, keys []int) uint64 {
	h := uint64(fnvOffset64)
	for _, k := range keys {
		h = hashValue(h, r[k]) ^ fnvPrime64 // xor: column separator
	}
	return h
}

// Iter is the engine's row stream: Next returns the next row and whether
// one was produced. Operators compose Iters the volcano way.
type Iter interface {
	Next() (Row, bool)
}

// SliceIter iterates a row slice.
type SliceIter struct {
	rows []Row
	i    int
}

// NewSliceIter wraps rows.
func NewSliceIter(rows []Row) *SliceIter { return &SliceIter{rows: rows} }

// Next implements Iter.
func (s *SliceIter) Next() (Row, bool) {
	if s.i >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.i]
	s.i++
	return r, true
}

// Drain collects an iterator into a slice.
func Drain(it Iter) []Row {
	var out []Row
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// HashJoin joins a build side (fully materialised) against a probe stream
// on equal keys, emitting probe-row ++ build-row concatenations (inner
// join). Buckets are probed in place with a cursor — no per-probe-row
// bucket copy — and output rows are carved from an arena.
type HashJoin struct {
	probe     Iter
	probeKeys []int
	table     map[uint64][]Row
	buildKeys []int
	// bucket/cursor walk the current probe row's candidate bucket.
	bucket  []Row
	cursor  int
	current Row
	arena   rowArena
}

// NewHashJoin builds the hash table from build rows in two passes: count
// per hash, then carve exact-size buckets out of one backing slice, so the
// build side costs O(distinct keys) allocations instead of O(rows).
func NewHashJoin(build []Row, buildKeys []int, probe Iter, probeKeys []int) *HashJoin {
	hashes := make([]uint64, len(build))
	counts := make(map[uint64]int32, len(build))
	for i, r := range build {
		h := Hash(r, buildKeys)
		hashes[i] = h
		counts[h]++
	}
	backing := make([]Row, len(build))
	t := make(map[uint64][]Row, len(counts))
	off := int32(0)
	for h, c := range counts {
		t[h] = backing[off : off : off+c]
		off += c
	}
	for i, r := range build {
		h := hashes[i]
		t[h] = append(t[h], r)
	}
	return &HashJoin{probe: probe, probeKeys: probeKeys, table: t, buildKeys: buildKeys}
}

// Next implements Iter.
func (j *HashJoin) Next() (Row, bool) {
	for {
		for j.cursor < len(j.bucket) {
			b := j.bucket[j.cursor]
			j.cursor++
			if keysEqual(j.current, j.probeKeys, b, j.buildKeys) {
				return j.arena.concat(j.current, b), true
			}
		}
		r, ok := j.probe.Next()
		if !ok {
			return nil, false
		}
		j.current = r
		j.bucket = j.table[Hash(r, j.probeKeys)]
		j.cursor = 0
	}
}

func keysEqual(a Row, ak []int, b Row, bk []int) bool {
	for i := range ak {
		if Compare(a[ak[i]], b[bk[i]]) != 0 {
			return false
		}
	}
	return true
}

// MergeJoin joins two key-sorted inputs on equal keys (inner join),
// emitting left ++ right. Both inputs must be sorted ascending by their
// key columns.
type MergeJoin struct {
	left, right         []Row
	leftKeys, rightKeys []int
	li, ri              int
	pendLeft, pendRight []Row
	pi, pj              int
	arena               rowArena
}

// NewMergeJoin creates a merge join over sorted inputs.
func NewMergeJoin(left []Row, leftKeys []int, right []Row, rightKeys []int) *MergeJoin {
	return &MergeJoin{left: left, right: right, leftKeys: leftKeys, rightKeys: rightKeys}
}

// Next implements Iter.
func (m *MergeJoin) Next() (Row, bool) {
	for {
		if m.pi < len(m.pendLeft) {
			l := m.pendLeft[m.pi]
			r := m.pendRight[m.pj]
			m.pj++
			if m.pj >= len(m.pendRight) {
				m.pj = 0
				m.pi++
			}
			return m.arena.concat(l, r), true
		}
		if m.li >= len(m.left) || m.ri >= len(m.right) {
			return nil, false
		}
		c := compareKeys(m.left[m.li], m.leftKeys, m.right[m.ri], m.rightKeys)
		switch {
		case c < 0:
			m.li++
		case c > 0:
			m.ri++
		default:
			// Gather the equal-key groups on both sides.
			ls, rs := m.li, m.ri
			for m.li < len(m.left) && compareKeys(m.left[m.li], m.leftKeys, m.right[rs], m.rightKeys) == 0 {
				m.li++
			}
			for m.ri < len(m.right) && compareKeys(m.left[ls], m.leftKeys, m.right[m.ri], m.rightKeys) == 0 {
				m.ri++
			}
			m.pendLeft = m.left[ls:m.li]
			m.pendRight = m.right[rs:m.ri]
			m.pi, m.pj = 0, 0
		}
	}
}

func compareKeys(a Row, ak []int, b Row, bk []int) int {
	for i := range ak {
		if c := Compare(a[ak[i]], b[bk[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// groupKeyEqual reports whether a stored group key tuple equals r's key
// columns (key[i] corresponds to r[keys[i]]).
func groupKeyEqual(key, r Row, keys []int) bool {
	for i, k := range keys {
		if Compare(key[i], r[k]) != 0 {
			return false
		}
	}
	return true
}

// HashAggregate groups rows by key columns and computes the aggregates,
// emitting key values followed by aggregate values. Output order is
// deterministic (sorted by key). Groups live in a flat table — key tuples
// carved from an arena, accumulators in one contiguous slice, hash
// collisions chained through an index slice — so the cost is O(groups)
// allocations, not O(rows).
func HashAggregate(rows []Row, keys []int, aggs []Agg) []Row {
	nk, na := len(keys), len(aggs)
	var arena rowArena
	head := make(map[uint64]int32, 64) // hash -> first group id
	var (
		groupKeys []Row
		accs      []accCell // group g's accumulators at accs[g*na : (g+1)*na]
		next      []int32   // collision chain: next group id with same hash, -1 ends
	)
	for _, r := range rows {
		h := Hash(r, keys)
		first, seen := head[h]
		gid := int32(-1)
		if seen {
			for g := first; g >= 0; g = next[g] {
				if groupKeyEqual(groupKeys[g], r, keys) {
					gid = g
					break
				}
			}
		}
		if gid < 0 {
			key := arena.alloc(nk)
			for i, k := range keys {
				key[i] = r[k]
			}
			gid = int32(len(groupKeys))
			groupKeys = append(groupKeys, key)
			for i := 0; i < na; i++ {
				accs = append(accs, accCell{})
			}
			if seen {
				next = append(next, first)
			} else {
				next = append(next, -1)
			}
			head[h] = gid
		}
		base := int(gid) * na
		for i, a := range aggs {
			accs[base+i].fold(a.Kind, r[a.Col])
		}
	}
	if len(groupKeys) == 0 {
		return nil
	}
	out := make([]Row, len(groupKeys))
	for g, key := range groupKeys {
		row := arena.alloc(nk + na)
		copy(row, key)
		base := g * na
		for i, a := range aggs {
			row[nk+i] = accs[base+i].value(a.Kind)
		}
		out[g] = row
	}
	SortRows(out, identity(nk))
	return out
}

// StreamedAggregate aggregates key-sorted input in one pass (the paper's
// sort-aggregate operator): rows must arrive sorted by the key columns.
// The current group's key columns are compared in place and accumulators
// are unboxed cells, so steady-state rows cost zero allocations.
func StreamedAggregate(in Iter, keys []int, aggs []Agg) []Row {
	var out []Row
	var arena rowArena
	var curKey Row
	started := false
	accs := make([]accCell, len(aggs))
	flush := func() {
		if !started {
			return
		}
		row := arena.alloc(len(curKey) + len(accs))
		copy(row, curKey)
		for i, a := range aggs {
			row[len(curKey)+i] = accs[i].value(a.Kind)
		}
		out = append(out, row)
	}
	for {
		r, ok := in.Next()
		if !ok {
			break
		}
		if !started || !groupKeyEqual(curKey, r, keys) {
			flush()
			started = true
			curKey = arena.alloc(len(keys))
			for i, k := range keys {
				curKey[i] = r[k]
			}
			for i := range accs {
				accs[i] = accCell{}
			}
		}
		for i, a := range aggs {
			accs[i].fold(a.Kind, r[a.Col])
		}
	}
	flush()
	return out
}

// MergeSortedRuns k-way merges pre-sorted runs into one sorted slice (the
// MergeSort operator of a reduce task over sorted map outputs). Small fan-
// ins use a linear scan; larger ones a cursor heap, keeping the merge
// O(total·log runs). Ties pop from the earliest run, matching the stable
// order a single sort of the concatenation would produce.
func MergeSortedRuns(runs [][]Row, keys []int) []Row {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]Row, 0, total)
	if len(runs) <= 4 {
		idx := make([]int, len(runs))
		for len(out) < total {
			best := -1
			for i, r := range runs {
				if idx[i] >= len(r) {
					continue
				}
				if best < 0 || CompareRows(r[idx[i]], runs[best][idx[best]], keys) < 0 {
					best = i
				}
			}
			out = append(out, runs[best][idx[best]])
			idx[best]++
		}
		return out
	}

	type cursor struct{ run, pos int }
	before := func(a, b cursor) bool {
		if c := CompareRows(runs[a.run][a.pos], runs[b.run][b.pos], keys); c != 0 {
			return c < 0
		}
		return a.run < b.run
	}
	h := make([]cursor, 0, len(runs))
	var siftDown func(i int)
	siftDown = func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			m := l
			if r := l + 1; r < len(h) && before(h[r], h[l]) {
				m = r
			}
			if !before(h[m], h[i]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i, r := range runs {
		if len(r) > 0 {
			h = append(h, cursor{run: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		c := h[0]
		out = append(out, runs[c.run][c.pos])
		c.pos++
		if c.pos < len(runs[c.run]) {
			h[0] = c
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	return out
}

// TopK keeps the k smallest rows under the key ordering (order by +
// limit), stable: ties resolve to the earlier input row.
func TopK(rows []Row, keys []int, k int) []Row {
	return topKBy(rows, k, func(a, b Row) int { return CompareRows(a, b, keys) })
}

// TopKDesc keeps the k largest rows under the key ordering (order by ...
// desc + limit), stable like TopK.
func TopKDesc(rows []Row, keys []int, k int) []Row {
	return topKBy(rows, k, func(a, b Row) int { return -CompareRows(a, b, keys) })
}

// topKBy selects the k first rows of the cmp ordering with a bounded
// max-heap — O(n log k) instead of copy + full sort — whose root is the
// worst row currently kept.
func topKBy(rows []Row, k int, cmp func(a, b Row) int) []Row {
	if k <= 0 {
		return nil
	}
	if k >= len(rows) {
		out := append([]Row(nil), rows...)
		slices.SortStableFunc(out, cmp)
		return out
	}
	type item struct {
		row Row
		idx int // input position: the tie-break that keeps the result stable
	}
	after := func(a, b item) bool {
		if c := cmp(a.row, b.row); c != 0 {
			return c > 0
		}
		return a.idx > b.idx
	}
	h := make([]item, 0, k)
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			m := l
			if r := l + 1; r < len(h) && after(h[r], h[l]) {
				m = r
			}
			if !after(h[m], h[i]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i, r := range rows {
		it := item{row: r, idx: i}
		if len(h) < k {
			h = append(h, it)
			// Sift up.
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if !after(h[j], h[p]) {
					break
				}
				h[j], h[p] = h[p], h[j]
				j = p
			}
		} else if after(h[0], it) {
			h[0] = it
			siftDown(0)
		}
	}
	slices.SortFunc(h, func(a, b item) int {
		if c := cmp(a.row, b.row); c != 0 {
			return c
		}
		return a.idx - b.idx
	})
	out := make([]Row, len(h))
	for i, it := range h {
		out[i] = it.row
	}
	return out
}

// SortRows sorts rows in place by the key columns (stable). Single-key
// sorts over a kind-homogeneous column take a typed fast path that skips
// the per-comparison type switch of Compare.
func SortRows(rows []Row, keys []int) {
	if len(keys) == 1 && sortSingleKey(rows, keys[0]) {
		return
	}
	slices.SortStableFunc(rows, func(a, b Row) int { return CompareRows(a, b, keys) })
}

// sortSingleKey dispatches to a typed comparator when every value in the
// key column shares one concrete kind, reporting whether it sorted.
func sortSingleKey(rows []Row, k int) bool {
	if len(rows) < 2 {
		return true
	}
	switch rows[0][k].(type) {
	case int64:
		for _, r := range rows {
			if _, ok := r[k].(int64); !ok {
				return false
			}
		}
		slices.SortStableFunc(rows, func(a, b Row) int {
			av, bv := a[k].(int64), b[k].(int64)
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		})
	case string:
		for _, r := range rows {
			if _, ok := r[k].(string); !ok {
				return false
			}
		}
		slices.SortStableFunc(rows, func(a, b Row) int {
			return strings.Compare(a[k].(string), b[k].(string))
		})
	case float64:
		for _, r := range rows {
			if _, ok := r[k].(float64); !ok {
				return false
			}
		}
		slices.SortStableFunc(rows, func(a, b Row) int {
			return cmpFloat(a[k].(float64), b[k].(float64))
		})
	default:
		return false
	}
	return true
}

// rowArena carves output rows from shared value blocks, replacing the
// one-allocation-per-row cost of operators that materialise concatenated
// or aggregated rows. Carved rows have len == cap, so appending to one
// copies out instead of clobbering its arena neighbour. Arenas are
// single-goroutine and never reuse carved space.
type rowArena struct{ buf []Value }

const arenaBlockValues = 4096

func (a *rowArena) alloc(n int) Row {
	if n > len(a.buf) {
		size := arenaBlockValues
		if n > size {
			size = n
		}
		a.buf = make([]Value, size)
	}
	r := a.buf[:n:n]
	a.buf = a.buf[n:]
	return r
}

// concat carves a ++ b as one row.
func (a *rowArena) concat(x, y Row) Row {
	out := a.alloc(len(x) + len(y))
	copy(out, x)
	copy(out[len(x):], y)
	return out
}

// PartitionByKey hash-partitions rows into n buckets by the key columns —
// the shuffle-write kernel behind EmitByKey. It runs two passes (count,
// then place into exact-size buckets carved from one backing slice), so a
// whole shuffle write costs a constant number of allocations instead of
// O(n·log rows) append growth. Partitions may alias the input slice;
// callers must not mutate rows afterwards.
func PartitionByKey(rows []Row, keys []int, n int) [][]Row {
	if n <= 1 {
		return [][]Row{rows}
	}
	pidx := make([]uint32, len(rows))
	counts := make([]int, n)
	for i, r := range rows {
		p := uint32(Hash(r, keys) % uint64(n))
		pidx[i] = p
		counts[p]++
	}
	return scatter(rows, pidx, counts)
}

// scatter places rows into exact-size partitions (partition of row i is
// pidx[i], sized by counts) carved from one backing slice.
func scatter(rows []Row, pidx []uint32, counts []int) [][]Row {
	backing := make([]Row, len(rows))
	parts := make([][]Row, len(counts))
	off := 0
	for p, c := range counts {
		parts[p] = backing[off : off : off+c]
		off += c
	}
	for i, r := range rows {
		p := pidx[i]
		parts[p] = append(parts[p], r)
	}
	return parts
}

// PartitionByRange splits rows into len(bounds)+1 contiguous partitions:
// partition i holds rows below bounds[i] (and the last holds the rest).
// Two-pass like PartitionByKey; partitions may alias the input slice.
func PartitionByRange(rows []Row, keys []int, bounds []Row) [][]Row {
	if len(bounds) == 0 {
		return [][]Row{rows}
	}
	pidx := make([]uint32, len(rows))
	counts := make([]int, len(bounds)+1)
	for i, r := range rows {
		p := uint32(sort.Search(len(bounds), func(i int) bool {
			return CompareRows(r, bounds[i], keys) < 0
		}))
		pidx[i] = p
		counts[p]++
	}
	return scatter(rows, pidx, counts)
}
