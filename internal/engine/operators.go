package engine

// Agg is one aggregate specification for HashAggregateBatch: it folds the
// input's column Col into one accumulator per group.
type Agg struct {
	Kind AggKind
	Col  int
}

// AggKind enumerates supported aggregates.
type AggKind int

// Supported aggregate kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
)

// accCell is one (group, aggregate) accumulator over boxed values: the
// aggregate kernel's lane for TAny and bool columns, and the whole of the
// row reference aggregates (oracle_test.go), which is what keeps the two in
// step on mixed-kind sums. Sum/Count state is held unboxed; boxing happens
// once per group at emit time.
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

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
