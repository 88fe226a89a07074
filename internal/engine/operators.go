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

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
