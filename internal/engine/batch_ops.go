package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Batch operator kernels. Each kernel dispatches on column type once per
// batch (building a typed closure or running a typed loop) instead of
// unpacking an interface per cell. Every kernel is pinned to a row-at-a-time
// reference (oracle_test.go) by the equivalence property tests in
// batch_test.go, and accepts a zero-row batch of any width (see Batch).
//
// Kernels consume lazy (selection-vector) batches directly: logical row j
// reads physical row Sel[j], so a filter's or a partitioner's output flows
// into hashing, sorting, joining, aggregation and partitioning without
// materializing.

// ---- hashing ----

// HashBatchInto computes the partition-stable key hash of every row of the
// batch into dst (len(dst) == b.Len, the logical length), column-at-a-time.
// The result is bit-identical to the row-at-a-time definition the tests
// keep (Hash in oracle_test.go) on the materialised rows, so dense and view
// segments co-partition, and so do an int64 key and the equal float64 one.
func HashBatchInto(b *Batch, keys []int, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	for i := range dst {
		dst[i] = fnvOffset64
	}
	for _, k := range keys {
		hashColInto(&b.Cols[k], b.Sel, dst)
		for i := range dst {
			dst[i] ^= fnvPrime64 // column separator
		}
	}
}

// hashColInto folds one key column into the row hashes. sel maps logical
// slot j to physical row sel[j]; nil means dense. The dense lanes stay
// branch-free over the vectors, which is what keeps HashBatchInto
// allocation- and indirection-free on the hot path.
func hashColInto(c *Column, sel []int32, dst []uint64) {
	nulls := c.Nulls
	switch c.Type {
	case TInt64:
		if sel == nil {
			for i, v := range c.Ints {
				if nulls != nil && bitGet(nulls, i) {
					dst[i] = hashByte(dst[i], tagNull)
					continue
				}
				dst[i] = hashUint64(hashByte(dst[i], tagNumber), uint64(v))
			}
		} else {
			for j, s := range sel {
				if nulls != nil && bitGet(nulls, int(s)) {
					dst[j] = hashByte(dst[j], tagNull)
					continue
				}
				dst[j] = hashUint64(hashByte(dst[j], tagNumber), uint64(c.Ints[s]))
			}
		}
	case TFloat64:
		if sel == nil {
			for i, v := range c.Floats {
				if nulls != nil && bitGet(nulls, i) {
					dst[i] = hashByte(dst[i], tagNull)
					continue
				}
				dst[i] = hashFloatValue(dst[i], v)
			}
		} else {
			for j, s := range sel {
				if nulls != nil && bitGet(nulls, int(s)) {
					dst[j] = hashByte(dst[j], tagNull)
					continue
				}
				dst[j] = hashFloatValue(dst[j], c.Floats[s])
			}
		}
	case TString:
		if sel == nil {
			for i, v := range c.Strs {
				if nulls != nil && bitGet(nulls, i) {
					dst[i] = hashByte(dst[i], tagNull)
					continue
				}
				dst[i] = hashString(hashByte(dst[i], tagString), v)
			}
		} else {
			for j, s := range sel {
				if nulls != nil && bitGet(nulls, int(s)) {
					dst[j] = hashByte(dst[j], tagNull)
					continue
				}
				dst[j] = hashString(hashByte(dst[j], tagString), c.Strs[s])
			}
		}
	case TBool:
		if sel == nil {
			for i, v := range c.Bools {
				if nulls != nil && bitGet(nulls, i) {
					dst[i] = hashByte(dst[i], tagNull)
					continue
				}
				h := hashByte(dst[i], tagBool)
				if v {
					h = hashByte(h, 1)
				} else {
					h = hashByte(h, 0)
				}
				dst[i] = h
			}
		} else {
			for j, s := range sel {
				if nulls != nil && bitGet(nulls, int(s)) {
					dst[j] = hashByte(dst[j], tagNull)
					continue
				}
				h := hashByte(dst[j], tagBool)
				if c.Bools[s] {
					h = hashByte(h, 1)
				} else {
					h = hashByte(h, 0)
				}
				dst[j] = h
			}
		}
	}
}

// ---- comparison ----

// colCompare orders cell i of column a against cell j of column b: NULL
// first (NULL == NULL), same-kind values by their natural order (false <
// true) and an int64 against a float64 as two float64s; i and j are physical
// indices. Any other pairing is incomparable and panics — a plan bug, not
// runtime data.
func colCompare(a *Column, i int, b *Column, j int) int {
	an, bn := a.IsNull(i), b.IsNull(j)
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		}
		return 1
	}
	switch a.Type {
	case TInt64:
		switch b.Type {
		case TInt64:
			av, bv := a.Ints[i], b.Ints[j]
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		case TFloat64:
			return cmpFloat(float64(a.Ints[i]), b.Floats[j])
		default:
			// other pairings: incomparable, below
		}
	case TFloat64:
		switch b.Type {
		case TFloat64:
			return cmpFloat(a.Floats[i], b.Floats[j])
		case TInt64:
			return cmpFloat(a.Floats[i], float64(b.Ints[j]))
		default:
			// other pairings: incomparable, below
		}
	case TString:
		if b.Type == TString {
			av, bv := a.Strs[i], b.Strs[j]
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		}
	case TBool:
		if b.Type == TBool {
			av, bv := a.Bools[i], b.Bools[j]
			switch {
			case !av && bv:
				return -1
			case av && !bv:
				return 1
			}
			return 0
		}
	}
	panic(fmt.Sprintf("engine: incomparable %v and %v columns", a.Type, b.Type))
}

// keyMatcher compiles "physical row i of a agrees with physical row j of b
// on the paired key columns" once per call, one typed test per column.
func keyMatcher(a *Batch, akeys []int, b *Batch, bkeys []int) func(i, j int) bool {
	eqs := make([]func(i, j int) bool, len(akeys))
	for x := range akeys {
		eqs[x] = colEqual(&a.Cols[akeys[x]], &b.Cols[bkeys[x]])
	}
	if len(eqs) == 1 {
		return eqs[0]
	}
	return func(i, j int) bool {
		for _, eq := range eqs {
			if !eq(i, j) {
				return false
			}
		}
		return true
	}
}

// colEqual is colCompare(a, i, b, j) == 0 with the type dispatch hoisted:
// null-free columns of one type get a typed closure; anything else
// compares through colCompare.
func colEqual(a, b *Column) func(i, j int) bool {
	if a.Nulls == nil && b.Nulls == nil && a.Type == b.Type {
		switch a.Type {
		case TInt64:
			x, y := a.Ints, b.Ints
			return func(i, j int) bool { return x[i] == y[j] }
		case TFloat64:
			x, y := a.Floats, b.Floats
			return func(i, j int) bool { return cmpFloat(x[i], y[j]) == 0 }
		case TString:
			x, y := a.Strs, b.Strs
			return func(i, j int) bool { return x[i] == y[j] }
		case TBool:
			x, y := a.Bools, b.Bools
			return func(i, j int) bool { return x[i] == y[j] }
		}
	}
	return func(i, j int) bool { return colCompare(a, i, b, j) == 0 }
}

// compareBatchRows orders logical row i of batch a against logical row j of
// batch b by the paired key columns (akeys[x] against bkeys[x]).
func compareBatchRows(a *Batch, i int, akeys []int, b *Batch, j int, bkeys []int) int {
	pi, pj := a.physical(i), b.physical(j)
	for x := range akeys {
		if c := colCompare(&a.Cols[akeys[x]], pi, &b.Cols[bkeys[x]], pj); c != 0 {
			return c
		}
	}
	return 0
}

// ---- filter / sort ----

// FilterBatch returns a lazy view of the rows where keep reports true: the
// result shares the input's column vectors and carries a selection vector
// instead of gathering. The predicate receives a PHYSICAL row index, so
// typed plan code reads the column vectors directly; filters compose (a
// second FilterBatch narrows the same selection). Materialization happens
// at emit/codec boundaries or via (*Batch).Materialize. The selection is
// built in scratch and copied out at its exact size, so a selective filter
// allocates for the rows it keeps, not the rows it reads.
func FilterBatch(b *Batch, keep func(i int) bool) *Batch {
	s := getScratch()
	buf, n := s.int32s(0, b.Len), 0
	if b.Sel == nil {
		for i := 0; i < b.Len; i++ {
			if keep(i) {
				buf[n] = int32(i)
				n++
			}
		}
	} else {
		for _, p := range b.Sel {
			if keep(int(p)) {
				buf[n] = p
				n++
			}
		}
	}
	sel := make([]int32, n) // non-nil even when empty: Len 0 stays a view
	copy(sel, buf)
	s.put()
	return &Batch{Cols: b.Cols, Len: n, Sel: sel}
}

// colComparator builds a same-column ordering closure over physical
// indices, selecting the typed loop once per column (null-free fast lanes;
// null-aware otherwise).
func colComparator(c *Column) func(i, j int) int {
	if c.Nulls == nil {
		switch c.Type {
		case TInt64:
			v := c.Ints
			return func(i, j int) int {
				switch {
				case v[i] < v[j]:
					return -1
				case v[i] > v[j]:
					return 1
				}
				return 0
			}
		case TFloat64:
			v := c.Floats
			return func(i, j int) int { return cmpFloat(v[i], v[j]) }
		case TString:
			v := c.Strs
			return func(i, j int) int {
				switch {
				case v[i] < v[j]:
					return -1
				case v[i] > v[j]:
					return 1
				}
				return 0
			}
		case TBool:
			v := c.Bools
			return func(i, j int) int {
				switch {
				case !v[i] && v[j]:
					return -1
				case v[i] && !v[j]:
					return 1
				}
				return 0
			}
		}
	}
	cc := c
	return func(i, j int) int { return colCompare(cc, i, cc, j) }
}

// SortBatch returns the batch's rows stably sorted by the key columns
// (argsort over an index vector, then one typed gather; a lazy input's
// selection vector seeds the argsort, so sorting a filtered batch never
// materialises the pre-sort view). The result is dense. Sorting the
// producer-ordered concatenation of sorted runs is their stable k-way merge.
func SortBatch(b *Batch, keys []int) *Batch {
	s := getScratch()
	out := b.Gather(argsort(b, keys, false, s))
	s.put()
	return out
}

// TopKBatch returns the first k rows of the key ordering — ascending, or
// descending when desc is set — as a dense batch: ORDER BY + LIMIT in one
// kernel (argsort, then a k-row gather). Ties keep input order in both
// directions; k >= b.Len sorts the whole batch.
func TopKBatch(b *Batch, keys []int, k int, desc bool) *Batch {
	s := getScratch()
	idx := argsort(b, keys, desc, s)
	out := b.Gather(idx[:min(max(k, 0), len(idx))])
	s.put()
	return out
}

// argsort returns the batch's physical row indices stably ordered by the
// key columns, one colComparator per key. The indices live in s's first
// int32 vector, so the caller gathers through them before putting s back.
func argsort(b *Batch, keys []int, desc bool, s *scratch) []int32 {
	idx := s.int32s(0, b.Len)
	if b.Sel == nil {
		for i := range idx {
			idx[i] = int32(i)
		}
	} else {
		copy(idx, b.Sel)
	}
	if b.Len < 2 || len(keys) == 0 {
		return idx
	}
	cmps := make([]func(i, j int) int, len(keys))
	for x, k := range keys {
		cmps[x] = colComparator(&b.Cols[k])
	}
	slices.SortStableFunc(idx, func(x, y int32) int {
		for _, cmp := range cmps {
			if c := cmp(int(x), int(y)); c != 0 {
				if desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return idx
}

// ---- partitioning ----

// PartitionBatchByKey hash-partitions the batch into n sub-batches by the
// key columns — the shuffle-write kernel behind EmitBatchByKey. Hashing is
// columnar; each partition is a selection view over the input's columns
// (see partitionViews), so no column is copied.
func PartitionBatchByKey(b *Batch, keys []int, n int) []*Batch {
	if n <= 1 {
		return []*Batch{b}
	}
	s := getScratch()
	pidx := s.uint64s(0, b.Len)
	HashBatchInto(b, keys, pidx)
	for i, h := range pidx {
		pidx[i] = h % uint64(n)
	}
	parts := partitionViews(b, pidx, n)
	s.put()
	return parts
}

// PartitionBatchByRange splits the batch into len(bounds)+1 contiguous
// partitions: partition i holds rows below bounds[i] under the key columns
// (bounds are rows, as sampled by a Terasort-style plan). Partitions are
// selection views, like PartitionBatchByKey's.
func PartitionBatchByRange(b *Batch, keys []int, bounds []Row) []*Batch {
	if len(bounds) == 0 {
		return []*Batch{b}
	}
	bb := BatchFromRows(bounds)
	s := getScratch()
	pidx := s.uint64s(0, b.Len)
	for i := range pidx {
		pidx[i] = uint64(sort.Search(len(bounds), func(bi int) bool {
			return compareBatchRows(b, i, keys, bb, bi, keys) < 0
		}))
	}
	parts := partitionViews(b, pidx, len(bounds)+1)
	s.put()
	return parts
}

// partitionViews splits b into n views, logical row j going to partition
// pidx[j] in row order. The views share b's columns; their selections are
// carved from one []int32 and name b's physical rows, so a view input
// composes its own Sel. Four allocations, whatever the row, column and
// partition counts.
func partitionViews(b *Batch, pidx []uint64, n int) []*Batch {
	ends := make([]int, n+1) // ends[p+1]: rows in partitions ≤ p
	for _, p := range pidx {
		ends[p+1]++
	}
	for p := 1; p <= n; p++ {
		ends[p] += ends[p-1]
	}
	sel := make([]int32, b.Len)
	views := make([]Batch, n)
	parts := make([]*Batch, n)
	for p := range views {
		views[p] = Batch{Cols: b.Cols, Len: ends[p+1] - ends[p], Sel: sel[ends[p]:ends[p+1]:ends[p+1]]}
		parts[p] = &views[p]
	}
	for j, p := range pidx {
		sel[ends[p]] = int32(b.physical(j))
		ends[p]++
	}
	return parts
}

// tableShift sizes a power-of-two hash table for n entries: the table has
// 1<<(64-shift) slots, the smallest power of two above n, and slot(h,
// shift) indexes it.
func tableShift(n int) uint { return uint(64 - bits.Len(uint(n))) }

// slot takes a hash's table slot from the high bits of a Fibonacci
// multiply. FNV-1a's own high bits barely see the last bytes it folds — the
// ones string keys like "key-0041" differ in — so indexing by them directly
// piles such keys into a few slots.
func slot(h uint64, shift uint) uint64 { return (h * 0x9e3779b97f4a7c15) >> shift }

// ---- hash join ----

// HashJoinBatch inner-joins probe rows against a build side on equal keys,
// emitting probe columns followed by build columns, in probe order and, per
// probe row, build order. The build table is one flat chain: heads holds
// each slot's first build row and next links the rest, both int32 and
// inserted in reverse so every chain walks its build rows in order. A
// candidate must match the full 64-bit hash before its keys are compared
// (typed, compiled once per call). Matches accumulate as physical index
// pairs and materialise with one typed gather per side, so lazy inputs join
// through their selections. Hashes, table and match indexes are scratch:
// the output columns are the call's only row-sized allocations.
func HashJoinBatch(build *Batch, buildKeys []int, probe *Batch, probeKeys []int) *Batch {
	s := getScratch()
	bh := s.uint64s(0, build.Len)
	HashBatchInto(build, buildKeys, bh)
	shift := tableShift(build.Len)
	heads := s.int32s(0, 1<<(64-shift)) // build row + 1; 0 ends a chain
	clear(heads)
	next := s.int32s(1, build.Len)
	for i := build.Len - 1; i >= 0; i-- {
		sl := slot(bh[i], shift)
		next[i] = heads[sl]
		heads[sl] = int32(i + 1)
	}

	ph := s.uint64s(1, probe.Len)
	HashBatchInto(probe, probeKeys, ph)
	// Hash matches bound the match count (over only by 64-bit collisions
	// between distinct keys), so the match index arrays are sized once.
	cand := 0
	for _, h := range ph {
		for e := heads[slot(h, shift)]; e != 0; e = next[e-1] {
			if bh[e-1] == h {
				cand++
			}
		}
	}
	pIdx := s.int32s(2, cand)[:0]
	bIdx := s.int32s(3, cand)[:0]
	if cand > 0 {
		eq := keyMatcher(probe, probeKeys, build, buildKeys)
		for i, h := range ph {
			pi := probe.physical(i)
			for e := heads[slot(h, shift)]; e != 0; e = next[e-1] {
				if bh[e-1] != h {
					continue
				}
				if bi := build.physical(int(e - 1)); eq(pi, bi) {
					pIdx = append(pIdx, int32(pi))
					bIdx = append(bIdx, int32(bi))
				}
			}
		}
	}
	out := &Batch{Cols: make([]Column, len(probe.Cols)+len(build.Cols)), Len: len(pIdx)}
	for c := range probe.Cols {
		out.Cols[c] = gatherCol(&probe.Cols[c], pIdx)
	}
	for c := range build.Cols {
		out.Cols[len(probe.Cols)+c] = gatherCol(&build.Cols[c], bIdx)
	}
	s.put()
	return out
}

// ---- hash aggregate ----

// minGroupSlots bounds the aggregate's first table: it starts at the
// smallest power of two above twice min(rows, minGroupSlots) slots.
const minGroupSlots = 32

// HashAggregateBatch groups the batch by the key columns and folds the
// aggregates, emitting key columns followed by one column per aggregate,
// sorted by key (no aggregates: the distinct keys). Groups are found in one
// open-addressed table of group ids, probed linearly; it starts small (see
// minGroupSlots) and doubles, rehashing from the groups' first rows'
// hashes, whenever it passes half load, so its size follows the group
// count, not the row count. A slot's group matches only if the hash of its
// first row does before the keys are compared (typed, compiled once per
// call). Each aggregate then folds in one typed pass over the whole batch,
// so sums over an int64 or float64 column never box a value. Output columns
// stay typed: Count and int sums are TInt64 vectors, float sums TFloat64,
// Min/Max the input column's type. Hashes, table, group representatives
// and group ids are scratch: what the call allocates follows the groups.
func HashAggregateBatch(b *Batch, keys []int, aggs []Agg) *Batch {
	nk, na := len(keys), len(aggs)
	if b == nil || b.Len == 0 {
		return &Batch{Cols: make([]Column, nk+na)}
	}
	s := getScratch()
	hashes := s.uint64s(0, b.Len)
	HashBatchInto(b, keys, hashes)
	eq := keyMatcher(b, keys, b, keys)
	shift := tableShift(2 * min(b.Len, minGroupSlots))
	slots := s.int32s(0, 1<<(64-shift)) // group id + 1; 0 is empty
	clear(slots)
	mask := uint64(len(slots) - 1)
	rep := s.int32s(1, b.Len)  // group id -> first row, logical; groups entries used
	gids := s.int32s(2, b.Len) // logical row -> group id
	groups := 0
	for i, h := range hashes {
		pi := b.physical(i)
		for sl := slot(h, shift); ; sl = (sl + 1) & mask {
			e := slots[sl]
			if e == 0 {
				gids[i] = int32(groups)
				rep[groups] = int32(i)
				groups++
				slots[sl] = int32(groups)
				break
			}
			if g := e - 1; hashes[rep[g]] == h && eq(b.physical(int(rep[g])), pi) {
				gids[i] = g
				break
			}
		}
		if 2*groups > len(slots) {
			shift--
			slots = s.int32s(0, 1<<(64-shift))
			clear(slots)
			mask = uint64(len(slots) - 1)
			for g, r := range rep[:groups] {
				sl := slot(hashes[r], shift)
				for slots[sl] != 0 {
					sl = (sl + 1) & mask
				}
				slots[sl] = int32(g + 1)
			}
		}
	}
	rep = rep[:groups]
	if b.Sel != nil {
		for g, i := range rep {
			rep[g] = b.Sel[i] // logical -> physical, for the key gather
		}
	}
	out := &Batch{Cols: make([]Column, nk+na), Len: groups}
	for x, k := range keys {
		out.Cols[x] = gatherCol(&b.Cols[k], rep)
	}
	for x, a := range aggs {
		out.Cols[nk+x] = aggColumn(b, a, gids, groups)
	}
	s.put()
	return SortBatch(out, identity(nk))
}

// aggColumn folds one aggregate over the whole batch in one typed pass,
// producing one value per group; gids is logical-indexed, so lazy inputs
// fold through the selection. NULL inputs are skipped by Sum/Min/Max (a
// group with no non-NULL input yields NULL); Count counts rows. Sum takes an
// int64 or float64 column and Min/Max any column but a bool one; no plan
// asks for the others, and they panic.
func aggColumn(b *Batch, a Agg, gids []int32, groups int) Column {
	col := &b.Cols[a.Col]
	switch {
	case a.Kind == AggCount:
		out := make([]int64, groups)
		for _, g := range gids {
			out[g]++
		}
		return Int64Col(out)
	case col.Type == TInt64:
		acc, seen := fold(b, col.Nulls, col.Ints, a.Kind, gids, groups)
		return withUnseenNulls(Int64Col(acc), seen)
	case col.Type == TFloat64:
		acc, seen := fold(b, col.Nulls, col.Floats, a.Kind, gids, groups)
		return withUnseenNulls(Float64Col(acc), seen)
	case col.Type == TString && a.Kind != AggSum:
		acc, seen := fold(b, col.Nulls, col.Strs, a.Kind, gids, groups)
		return withUnseenNulls(StringCol(acc), seen)
	}
	panic(fmt.Sprintf("engine: aggregate kind %d over a %v column", a.Kind, col.Type))
}

// fold is aggColumn's Sum/Min/Max loop over one typed vector: acc[g] is
// group g's result and seen[g] whether a non-NULL input reached it. For
// floats v < acc is exactly cmpFloat(v, acc) < 0, so one loop serves every
// type.
func fold[T int64 | float64 | string](b *Batch, nulls []uint64, vals []T, kind AggKind, gids []int32, groups int) (acc []T, seen []bool) {
	acc = make([]T, groups)
	seen = make([]bool, groups)
	for j, g := range gids {
		i := b.physical(j)
		if nulls != nil && bitGet(nulls, i) {
			continue
		}
		v := vals[i]
		switch {
		case !seen[g]:
			acc[g] = v
		case kind == AggSum:
			acc[g] += v
		case kind == AggMin && v < acc[g]:
			acc[g] = v
		case kind == AggMax && v > acc[g]:
			acc[g] = v
		}
		seen[g] = true
	}
	return acc, seen
}

// withUnseenNulls marks groups that never saw a non-NULL input as NULL.
func withUnseenNulls(c Column, seen []bool) Column {
	for g, s := range seen {
		if !s {
			c.setNull(g, len(seen))
		}
	}
	return c
}
