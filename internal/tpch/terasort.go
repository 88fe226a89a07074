package tpch

import (
	"fmt"

	"swift/internal/dag"
)

// Terasort returns the Table I Terasort job with m map tasks and n reduce
// tasks; each map task processes 200 MB, so the total sorted volume is
// m × 200 MB. The reduce side performs the global sort, so the map→reduce
// edge is a barrier and the job forms two graphlets — whose shuffle edge
// size m×n drives the adaptive mode selection (250² = 62,500 → Remote;
// 1500² = 2,250,000 → Local).
func Terasort(m, n int) *dag.Job {
	if m <= 0 || n <= 0 {
		panic("tpch: terasort sizes must be positive")
	}
	total := int64(m) * 200 * MB
	j := dag.NewJob(fmt.Sprintf("terasort-%dx%d", m, n))
	mapStage := &dag.Stage{
		Name:  "map",
		Tasks: m,
		Operators: []dag.Operator{
			dag.Op(dag.OpTableScan), dag.Op(dag.OpMergeSort), dag.Op(dag.OpShuffleWrite),
		},
		Idempotent: true,
		Cost: dag.Cost{
			ScanBytes:             total,
			ProcessSecondsPerTask: 6.0, // partition + local sort of 200 MB
		},
	}
	reduceStage := &dag.Stage{
		Name:  "reduce",
		Tasks: n,
		Operators: []dag.Operator{
			dag.Op(dag.OpShuffleRead), dag.Op(dag.OpMergeSort), dag.Op(dag.OpAdhocSink),
		},
		Idempotent: true,
		Cost: dag.Cost{
			ProcessSecondsPerTask: 6.0 * float64(m) / float64(n), // merge of its partition
			OutputBytes:           total,
		},
	}
	if err := j.AddStage(mapStage); err != nil {
		panic("tpch: " + err.Error())
	}
	if err := j.AddStage(reduceStage); err != nil {
		panic("tpch: " + err.Error())
	}
	if err := j.AddEdge(&dag.Edge{From: "map", To: "reduce", Op: dag.OpShuffleRead, Bytes: total}); err != nil {
		panic("tpch: " + err.Error())
	}
	j.Classify()
	return j
}
