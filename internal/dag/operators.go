package dag

// OperatorKind identifies a relational or data-movement operator inside a
// stage. The set follows Section II-A of the paper ("Swift supports all
// typical SQL operators such as sort merge join, sort aggregate, window,
// order by, and so on") plus the data-movement operators visible in
// Fig. 4(b) (TableScan, ShuffleWrite, ShuffleRead, AdhocSink).
type OperatorKind int

const (
	OpUnknown OperatorKind = iota

	// Data movement.
	OpTableScan
	OpShuffleWrite
	OpShuffleRead
	OpAdhocSink
	OpBroadcast

	// Row-at-a-time relational operators (pipelineable).
	OpFilter
	OpProject
	OpHashJoin
	OpHashAggregate
	OpLimit
	OpUnion

	// Global-sort-class operators (Section III-A1). Data crossing an edge
	// consumed by one of these cannot be streamed: the edge is a barrier.
	OpStreamedAggregate
	OpMergeJoin
	OpWindow
	OpSortBy
	OpMergeSort
)

var operatorNames = map[OperatorKind]string{
	OpUnknown:           "Unknown",
	OpTableScan:         "TableScan",
	OpShuffleWrite:      "ShuffleWrite",
	OpShuffleRead:       "ShuffleRead",
	OpAdhocSink:         "AdhocSink",
	OpBroadcast:         "Broadcast",
	OpFilter:            "Filter",
	OpProject:           "Project",
	OpHashJoin:          "HashJoin",
	OpHashAggregate:     "HashAggregate",
	OpLimit:             "Limit",
	OpUnion:             "Union",
	OpStreamedAggregate: "StreamedAggregate",
	OpMergeJoin:         "MergeJoin",
	OpWindow:            "Window",
	OpSortBy:            "SortBy",
	OpMergeSort:         "MergeSort",
}

// String returns the canonical operator name as used in the paper's figures.
func (k OperatorKind) String() string {
	if s, ok := operatorNames[k]; ok {
		return s
	}
	return "Invalid"
}

// GlobalSort reports whether the operator belongs to the global-sort class
// that forces the edge carrying its input to be a barrier edge
// (StreamedAggregate, MergeJoin, Window, SortBy, MergeSort; Section III-A1).
func (k OperatorKind) GlobalSort() bool {
	switch k {
	case OpStreamedAggregate, OpMergeJoin, OpWindow, OpSortBy, OpMergeSort:
		return true
	default:
		return false
	}
}

// Operator is one step of a stage's physical plan.
type Operator struct {
	Kind OperatorKind
}

// Op is shorthand for constructing an Operator.
func Op(kind OperatorKind) Operator { return Operator{Kind: kind} }
