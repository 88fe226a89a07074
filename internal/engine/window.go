package engine

// Window functions (the paper lists Window among the global-sort-class
// operators): per-partition ranked computations. A WindowSpec partitions
// rows by PartitionBy, orders each partition by OrderBy, and WindowBatch
// appends the computed window value to each row.

// WindowFunc identifies a supported window computation.
type WindowFunc int

// Supported window functions.
const (
	// WinRowNumber appends the 1-based position within the partition.
	WinRowNumber WindowFunc = iota
	// WinRank appends the rank with gaps (equal order keys share a rank).
	WinRank
	// WinDenseRank appends the rank without gaps.
	WinDenseRank
	// WinRunningSum appends the running sum of ValueCol within the
	// partition.
	WinRunningSum
)

// WindowSpec configures a window computation.
type WindowSpec struct {
	PartitionBy []int
	OrderBy     []int
	Func        WindowFunc
	// ValueCol is the summed column for WinRunningSum.
	ValueCol int
}

func asFloat(v Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	panic("engine: non-numeric value in running sum")
}
