// Package tpch provides the evaluation workloads: physical DAGs for the 22
// TPC-H queries at the paper's 1 TB scale (Q9 and Q13 reproduce the task
// structure published in Figs. 4 and 13) and the Terasort jobs of Table I.
//
// Task counts follow the paper's 200 MB-per-scan-task convention: lineitem
// at 1 TB compresses to ~190 GB, giving the 956 map tasks of Fig. 4.
package tpch

import (
	"fmt"

	"swift/internal/dag"
)

// GB is bytes per gigabyte.
const GB = int64(1) << 30

// MB is bytes per megabyte.
const MB = int64(1) << 20

// Table sizes at the 1 TB scale factor after columnar compression, in GB.
// Scan-task counts are size/200 MB, matching the published Q9 task counts.
var TableGB = map[string]float64{
	"lineitem": 186.7,
	"orders":   43.0,
	"partsupp": 78.7,
	"part":     9.0,
	"customer": 14.0,
	"supplier": 4.0,
	"nation":   0.2,
	"region":   0.1,
}

// stageSpec describes one stage of a query plan compactly.
type stageSpec struct {
	name   string
	tasks  int
	scanGB float64 // >0 for table-scan stages
	proc   float64 // per-task record-processing seconds
	sort   bool    // stage performs a global sort (MergeSort)
	sink   bool    // stage is the adhoc sink
	recs   int64   // input records (Fig. 13 reporting; optional)
}

type edgeSpec struct {
	from, to string
	gb       float64
}

type querySpec struct {
	stages []stageSpec
	edges  []edgeSpec
}

// procScale converts the per-stage work units of the query specs into
// seconds of record processing; calibrated so that Swift's TPC-H runtimes
// land in the paper's range (tens to a few hundred seconds at 1 TB).
const procScale = 3.0

// build converts a spec into a validated job DAG. Barrier edges emerge from
// the producers' MergeSort operators via dag.Classify, exactly as in the
// paper's Fig. 4 discussion.
func build(id string, qs querySpec) *dag.Job {
	j := dag.NewJob(id)
	for _, s := range qs.stages {
		ops := []dag.Operator{}
		switch {
		case s.scanGB > 0:
			ops = append(ops, dag.Op(dag.OpTableScan))
			if s.sort {
				ops = append(ops, dag.Op(dag.OpMergeSort))
			}
			ops = append(ops, dag.Op(dag.OpShuffleWrite))
		case s.sink:
			ops = append(ops, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpAdhocSink))
		case s.sort:
			ops = append(ops, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpMergeSort), dag.Op(dag.OpShuffleWrite))
		default:
			ops = append(ops, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashAggregate), dag.Op(dag.OpShuffleWrite))
		}
		st := &dag.Stage{
			Name: s.name, Tasks: s.tasks, Operators: ops, Idempotent: true,
			Cost: dag.Cost{
				ScanBytes:             int64(s.scanGB * float64(GB)),
				ProcessSecondsPerTask: s.proc * procScale,
				Records:               s.recs,
			},
		}
		if err := j.AddStage(st); err != nil {
			panic("tpch: " + err.Error())
		}
	}
	for _, e := range qs.edges {
		err := j.AddEdge(&dag.Edge{From: e.from, To: e.to, Op: dag.OpShuffleRead,
			Bytes: int64(e.gb * float64(GB))})
		if err != nil {
			panic("tpch: " + err.Error())
		}
	}
	j.Classify()
	if err := j.Validate(); err != nil {
		panic("tpch: " + err.Error())
	}
	return j
}

// Q9 returns the TPC-H Q9 DAG of Fig. 4: twelve stages in four graphlets,
// with MergeSort in J4, J6 and J10 making J4→J6, J6→J10 and J10→R11 barrier
// edges. Task counts are the published ones; join-stage parallelisms are
// inferred.
func Q9() *dag.Job {
	return build("tpch-q9", querySpec{
		stages: []stageSpec{
			{name: "M1", tasks: 956, scanGB: TableGB["lineitem"], proc: 4.0},
			{name: "M2", tasks: 220, scanGB: TableGB["orders"], proc: 2.5},
			{name: "M3", tasks: 3, scanGB: TableGB["supplier"] * 0.15, proc: 1.0},
			{name: "J4", tasks: 256, proc: 6.0, sort: true},
			{name: "M5", tasks: 403, scanGB: TableGB["partsupp"], proc: 2.5},
			{name: "J6", tasks: 256, proc: 5.0, sort: true},
			{name: "M7", tasks: 220, scanGB: TableGB["orders"], proc: 2.0},
			{name: "M8", tasks: 20, scanGB: TableGB["part"] * 0.45, proc: 1.5},
			{name: "R9", tasks: 64, proc: 2.0},
			{name: "J10", tasks: 128, proc: 5.0, sort: true},
			{name: "R11", tasks: 32, proc: 2.0},
			{name: "R12", tasks: 1, proc: 1.0, sink: true},
		},
		edges: []edgeSpec{
			{"M1", "J4", 60}, {"M2", "J4", 14}, {"M3", "J4", 0.3},
			{"J4", "J6", 40}, {"M5", "J6", 25},
			{"M7", "J10", 12}, {"M8", "R9", 2}, {"R9", "J10", 2},
			{"J6", "J10", 30},
			{"J10", "R11", 3}, {"R11", "R12", 0.05},
		},
	})
}

// Q13 returns the TPC-H Q13 DAG of Fig. 13, used for the fault-tolerance
// experiment (Fig. 14). Per-task record counts and input sizes follow the
// published table.
func Q13() *dag.Job {
	return build("tpch-q13", querySpec{
		stages: []stageSpec{
			{name: "M1", tasks: 498, scanGB: 37.0, proc: 8.0, recs: 498 * 3012048},
			{name: "M2", tasks: 72, scanGB: 14.0, proc: 3.0, recs: 72 * 262697},
			{name: "J3", tasks: 200, proc: 10.0, sort: true, recs: 200 * 2861350},
			{name: "R4", tasks: 100, proc: 8.0, recs: 100 * 262698},
			{name: "R5", tasks: 10, proc: 4.0, sort: true, recs: 10 * 28},
			{name: "R6", tasks: 1, proc: 3.0, sink: true, recs: 30},
		},
		edges: []edgeSpec{
			{"M1", "J3", 28}, {"M2", "J3", 5},
			{"J3", "R4", 12}, {"R4", "R5", 0.01}, {"R5", "R6", 0.001},
		},
	})
}

// Q13Detail is one row of the Fig. 13 job-detail table.
type Q13Detail struct {
	Stage            string
	Tasks            int
	RecordsPerTask   int64
	InputSizePerTask string
}

// Q13Details reproduces the Fig. 13 table.
func Q13Details() []Q13Detail {
	return []Q13Detail{
		{"M1", 498, 3012048, "76MB"},
		{"M2", 72, 262697, "5MB"},
		{"J3", 200, 2861350, "26MB"},
		{"R4", 100, 262698, "2MB"},
		{"R5", 10, 28, "1.1KB"},
		{"R6", 1, 30, "1.3KB"},
	}
}

// Query returns the DAG for TPC-H query n (1..22); it panics on other n.
// Q9 and Q13 use the published structure; the remaining plans are shaped
// from the query text (tables joined, aggregation depth) with scan
// parallelism derived from table sizes.
func Query(n int) *dag.Job {
	switch n {
	case 9:
		return Q9()
	case 13:
		return Q13()
	}
	spec, ok := genericSpecs[n]
	if !ok {
		panic(fmt.Sprintf("tpch: unknown query %d", n))
	}
	return build(fmt.Sprintf("tpch-q%d", n), spec)
}
